"""Deterministic CSV and minimal SVG emission.

Floats are printed with 17 significant digits so CSV artifacts round-trip to
the exact binary value and byte-compare across runs.  SVG output is a plain
polyline with axis annotations, no plotting dependency.
"""

from __future__ import annotations

import math
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

__all__ = ["format_value", "write_csv", "read_csv", "write_svg"]


# Rows formatted per write: bounds the text held in memory for long tables.
_CHUNK_ROWS = 4096


def format_value(value) -> str:
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _row_template(row) -> str:
    """``%``-template applying :func:`format_value`'s rule to each value of ``row``."""
    return ",".join(["%.17g" if isinstance(v, float) else "%s" for v in row]) + "\n"


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write rows with fixed formatting and Unix newlines (byte-reproducible).

    Each row is formatted by one ``%`` template built from its value types,
    so columns that mix floats with labels follow :func:`format_value`.
    """
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            f.write("".join([_row_template(row) % tuple(row) for row in chunk]))


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line]
    if not lines:
        raise ValueError(f"{path}: empty CSV file, expected a header line")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def write_svg(path, x, y, title: str = "", width: int = 800, height: int = 500) -> None:
    """Single-curve polyline plot with a frame and min/max labels."""
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if len(xs) != len(ys) or not xs:
        raise ValueError("x and y must be equal-length, non-empty sequences")
    margin = 50.0
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
