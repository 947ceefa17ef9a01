"""Deterministic CSV and minimal SVG emission.

Floats are printed with 17 significant digits so CSV artifacts round-trip to
the exact binary value and byte-compare across runs.  Two writers share that
per-value rule (:func:`format_value`, applied through :func:`_row_template`):
:func:`write_csv` takes rows of mixed Python or NumPy values and picks each
row's template from its value types, and :func:`write_columns` takes
equal-length float64 or integer NumPy columns, whose types fix one template
for the whole table.  Both format :data:`_CHUNK_ROWS` rows per write.  SVG
output is a plain polyline with axis annotations, no plotting dependency.
"""

from __future__ import annotations

import functools
import math
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = ["format_value", "write_csv", "write_columns", "read_csv", "write_svg"]


# Rows formatted per write: bounds the text held in memory for long tables.
_CHUNK_ROWS = 4096


def format_value(value) -> str:
    return f"{value:.17g}" if isinstance(value, float) else str(value)


@functools.lru_cache
def _row_template(types: tuple[type, ...]) -> str:
    """``%``-template applying :func:`format_value`'s rule to a row of value ``types``."""
    return ",".join(["%.17g" if issubclass(t, float) else "%s" for t in types]) + "\n"


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write rows with fixed formatting and Unix newlines (byte-reproducible).

    Each chunk of rows is formatted by one ``%`` over its rows' templates,
    joined; a row's template follows :func:`format_value` per value and is
    cached by the row's tuple of value types, so columns that mix floats with
    labels need no second code path.
    """
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            template = "".join([_row_template(tuple(map(type, row))) for row in chunk])
            f.write(template % tuple(chain.from_iterable(chunk)))


def write_columns(path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write one row per index of equal-length NumPy ``columns``, with the bytes of
    :func:`write_csv` on the zipped rows.

    Each column must be a 1-d float64 or integer array; anything else raises
    ``TypeError`` (a float32 value would print with the digits of its float64
    widening) or ``ValueError`` naming the column.  The row template follows
    from the column types once; each chunk takes one ``tolist`` per column and
    one ``%``, so no whole column is held as a list.
    """
    if not columns or len(header) != len(columns):
        raise ValueError(f"need one header name per column, got {len(header)} for {len(columns)}")
    for name, column in zip(header, columns):
        kind = getattr(column, "dtype", type(column).__name__)
        if not isinstance(column, np.ndarray) or not (kind == np.float64 or kind.kind in "iu"):
            raise TypeError(f"column {name!r} must be a float64 or integer array, got {kind}")
        if column.ndim != 1:
            raise ValueError(f"column {name!r} must be 1-d, got shape {column.shape}")
        if len(column) != len(columns[0]):
            raise ValueError(f"column {name!r} has {len(column)} rows, not {len(columns[0])}")
    row = _row_template(tuple(float if column.dtype.kind == "f" else int for column in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CHUNK_ROWS):
            chunk = [column[start : start + _CHUNK_ROWS].tolist() for column in columns]
            f.write(row * len(chunk[0]) % tuple(chain.from_iterable(zip(*chunk))))


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line]
    if not lines:
        raise ValueError(f"{path}: empty CSV file, expected a header line")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def write_svg(path, x, y, title: str = "") -> None:
    """Single-curve 800 x 500 polyline plot with a frame and min/max labels."""
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if len(xs) != len(ys) or not xs:
        raise ValueError("x and y must be equal-length, non-empty sequences")
    width, height, margin = 800, 500, 50.0
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0

    def px(v: float) -> float:
        return margin + (v - x0) / xspan * (width - 2 * margin)

    def py(v: float) -> float:
        return height - margin - (v - y0) / yspan * (height - 2 * margin)

    points = " ".join(
        f"{px(a):.2f},{py(b):.2f}" for a, b in zip(xs, ys) if math.isfinite(b)
    )
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
