"""SVG rendering: arrangement and dual subdivision side by side.

The left panel draws every tropical line as three rays clipped to a
bounding box 2 units beyond all vertices, with stable intersections
marked by kind (transversal crossings as filled circles, vertex-located
intersections as open squares). The right panel draws the dual
subdivision of n * Delta_2 with cells colored by class.

Output is plain SVG 1.1 text and a deterministic function of the input:
coordinates are formatted with a fixed precision, and everything is
iterated in a fixed order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from .arrangement import Arrangement, arrangement_vertices, dual_cell
from .lines import IntersectionKind, Point2, stable_intersections

PANEL = 360.0
MARGIN = 24.0
GAP = 48.0

LINE_COLORS = (
    "#c0392b",
    "#2471a3",
    "#1e8449",
    "#b7950b",
    "#884ea0",
    "#ca6f1e",
    "#17a589",
    "#5d6d7e",
)

CELL_FILLS = {
    "Triangle": "#f5c6c6",
    "Parallelogram": "#c6d8f5",
    "Hexagon": "#cdebcd",
    "NonUniform4": "#e3e3e3",
    "NonUniform5": "#d6d6d6",
    "NonUniform6": "#c9c9c9",
}


def _fmt(x: float) -> str:
    return f"{x:.3f}"


class _Panel:
    """Affine map from math coordinates (y up) to panel coordinates."""

    def __init__(self, xmin, xmax, ymin, ymax, offset_x: float):
        self.xmin = Fraction(xmin)
        self.ymax = Fraction(ymax)
        spanx = Fraction(xmax) - Fraction(xmin)
        spany = Fraction(ymax) - Fraction(ymin)
        span = max(spanx, spany, Fraction(1))
        self.scale = Fraction(int(PANEL)) / span
        self.offset_x = offset_x

    def x(self, vx) -> float:
        return float(self.offset_x + MARGIN + (Fraction(vx) - self.xmin) * self.scale)

    def y(self, vy) -> float:
        return float(MARGIN + (self.ymax - Fraction(vy)) * self.scale)

    def pt(self, p) -> str:
        return f"{_fmt(self.x(p[0]))},{_fmt(self.y(p[1]))}"


def render_svg(arr: Arrangement) -> str:
    """One SVG document: clipped arrangement left, subdivision right."""
    n = arr.n
    xs = [line.vertex.x for line in arr.lines]
    ys = [line.vertex.y for line in arr.lines]
    xmin, xmax = min(xs) - 2, max(xs) + 2
    ymin, ymax = min(ys) - 2, max(ys) + 2

    left = _Panel(xmin, xmax, ymin, ymax, 0.0)
    right = _Panel(0, n, 0, n, MARGIN + PANEL + GAP)
    width = 2 * (PANEL + 2 * MARGIN) + GAP
    height = PANEL + 2 * MARGIN

    parts: List[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    parts.append(f'<rect width="{_fmt(width)}" height="{_fmt(height)}" fill="white"/>')

    # left panel frame
    parts.append(
        f'<rect x="{_fmt(MARGIN)}" y="{_fmt(MARGIN)}" width="{_fmt(PANEL)}" '
        f'height="{_fmt(PANEL)}" fill="none" stroke="#999999" stroke-width="0.5"/>'
    )

    # each line: three rays from the vertex, clipped to the bounding box
    for i, line in enumerate(arr.lines):
        color = LINE_COLORS[i % len(LINE_COLORS)]
        v = line.vertex
        ends = [
            Point2(xmin, v.y),
            Point2(v.x, ymin),
        ]
        t_ne = min(xmax - v.x, ymax - v.y)
        ends.append(Point2(v.x + t_ne, v.y + t_ne))
        for end in ends:
            parts.append(
                f'<line x1="{_fmt(left.x(v.x))}" y1="{_fmt(left.y(v.y))}" '
                f'x2="{_fmt(left.x(end.x))}" y2="{_fmt(left.y(end.y))}" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        parts.append(
            f'<circle cx="{_fmt(left.x(v.x))}" cy="{_fmt(left.y(v.y))}" '
            f'r="2.200" fill="{color}"/>'
        )

    # stable intersections, marked by kind; a point that is any pair's
    # vertex-located intersection is a line vertex, so the square wins
    marks = stable_intersections(arr.lines)
    for point in sorted(marks):
        cx, cy = left.x(point.x), left.y(point.y)
        if IntersectionKind.SECOND in marks[point]:
            parts.append(
                f'<rect x="{_fmt(cx - 4)}" y="{_fmt(cy - 4)}" width="8.000" '
                f'height="8.000" fill="white" stroke="black" stroke-width="1.5"/>'
            )
        else:
            parts.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3.200" fill="black"/>'
            )

    # right panel: n * Delta_2 and the dual subdivision
    simplex = [(0, 0), (n, 0), (0, n)]
    parts.append(
        '<polygon points="'
        + " ".join(right.pt(p) for p in simplex)
        + '" fill="none" stroke="#999999" stroke-width="0.5"/>'
    )
    for vd in arrangement_vertices(arr):
        cell = dual_cell(vd)
        fill = CELL_FILLS[cell.cell_class.value]
        parts.append(
            '<polygon points="'
            + " ".join(right.pt(p) for p in cell.vertices)
            + f'" fill="{fill}" stroke="#333333" stroke-width="1.0"/>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
