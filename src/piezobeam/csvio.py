"""Deterministic CSV and minimal SVG emission.

Floats are printed with 17 significant digits so CSV artifacts round-trip to
the exact binary value and byte-compare across runs.  One writer,
:func:`write_csv`, takes a table as equal-length columns, by keyword, and
prints each cell by one of two rules: a float64 NumPy column prints ``%.17g``
of its values and an integer one ``%d``, and any other column (a tuple from
``zip(*rows)``, a list, a ``range`` or an array of another dtype) prints
:func:`format_value` of each value, which is the same text for a float or an
integer.  It formats
:data:`_CHUNK_ROWS` rows per write.  SVG output is a plain polyline with axis
annotations, no plotting dependency.
"""

from __future__ import annotations

import math
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = ["format_value", "write_csv", "read_csv", "write_svg"]


# Rows formatted per write: bounds the text held in memory for long tables.
_CHUNK_ROWS = 4096


def format_value(value) -> str:
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _array_format(dtype) -> str | None:
    """``%.17g`` for a float64 column, ``%d`` for an integer one, else None (per value)."""
    if dtype == np.float64:
        return "%.17g"
    return "%d" if dtype is not None and dtype.kind in "iu" else None


def write_csv(path, header: Sequence[str], *, columns: Iterable[Sequence]) -> None:
    """Write one row per index of equal-length 1-d ``columns``, with fixed formatting
    and Unix newlines (byte-reproducible).  ``columns`` is keyword-only, so a call
    that passes rows positionally raises ``TypeError`` instead of writing them
    transposed.

    A float64 NumPy column prints ``%.17g`` and an integer one ``%d``, over one
    ``tolist`` per chunk; any other column prints :func:`format_value` of each
    value.  The row template follows from the columns once; each chunk takes one
    slice per column and one ``%``.  No columns at all is a table of no rows.  A
    column count other than the header's, a column that is not 1-d or of another
    length raises ``ValueError`` naming the column, before the file is opened.
    """
    columns = list(columns)
    if columns and len(header) != len(columns):
        raise ValueError(f"need one header name per column, got {len(header)} for {len(columns)}")
    for name, column in zip(header, columns):
        if getattr(column, "ndim", 1) != 1:
            raise ValueError(f"column {name!r} must be 1-d, got shape {column.shape}")
        if len(column) != len(columns[0]):
            raise ValueError(f"column {name!r} has {len(column)} rows, not {len(columns[0])}")
    formats = [_array_format(getattr(column, "dtype", None)) for column in columns]
    row = ",".join([fmt or "%s" for fmt in formats]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]) if columns else 0, _CHUNK_ROWS):
            cells = [column[start : start + _CHUNK_ROWS] for column in columns]
            chunk = [c.tolist() if fmt else list(map(format_value, c)) for c, fmt in zip(cells, formats)]
            f.write(row * len(chunk[0]) % tuple(chain.from_iterable(zip(*chunk))))


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line]
    if not lines:
        raise ValueError(f"{path}: empty CSV file, expected a header line")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def write_svg(path, x, y, title: str = "") -> None:
    """Single-curve 800 x 500 polyline plot with a frame and min/max labels.

    Only the points where both ``x`` and ``y`` are finite are drawn, and the axes
    span those points.  Unequal lengths, or no finite point, raise ``ValueError``
    before the file is opened.
    """
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if len(xs) != len(ys):
        raise ValueError("x and y must be equal-length sequences")
    finite = [(a, b) for a, b in zip(xs, ys) if math.isfinite(a) and math.isfinite(b)]
    if not finite:
        raise ValueError("x and y share no finite point to draw")
    xs, ys = zip(*finite)
    width, height, margin = 800, 500, 50.0
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0

    def px(v: float) -> float:
        return margin + (v - x0) / xspan * (width - 2 * margin)

    def py(v: float) -> float:
        return height - margin - (v - y0) / yspan * (height - 2 * margin)

    points = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in finite)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="black"/>',
        f'<polyline points="{points}" fill="none" stroke="steelblue" stroke-width="1.5"/>',
        f'<text x="{width / 2:.0f}" y="25" text-anchor="middle" font-size="16">{title}</text>',
        f'<text x="{margin}" y="{height - 15}" font-size="12">x: [{x0:.6g}, {x1:.6g}]</text>',
        f'<text x="{width / 2:.0f}" y="{height - 15}" font-size="12">y: [{y0:.6g}, {y1:.6g}]</text>',
        "</svg>",
    ]
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")
