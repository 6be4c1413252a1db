"""Static rendering of presentations: deterministic SVG and ASCII output.

The drawing follows the projection convention: the binding axis runs
horizontally, page 2 semicircles hang below it, pages 1 and 3 arch above it,
and wherever a page-3 arc passes over a page-1 arc the page-1 arc is drawn
with a gap.  Output is a pure function of the input, byte-stable across
runs, so renders can serve as golden files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .presentation import Arc, ThreePagePresentation, arcs_interleave

PAGE_COLORS = ("#1f6fb2", "#2f9e44", "#c92a2a")
GAP_RADIANS = 0.18


@dataclass(frozen=True)
class RenderSpec:
    """Output options: format svg|ascii, geometric scale, point labels."""

    format: str = "svg"
    scale: float = 40.0
    labels: bool = True

    def __post_init__(self) -> None:
        if self.format not in ("svg", "ascii"):
            raise ValueError(f"unknown format {self.format!r}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")


def render(p: ThreePagePresentation, spec: RenderSpec = RenderSpec()) -> str:
    if spec.format == "svg":
        return render_svg(p, spec)
    return render_ascii(p, spec)


def crossing_position(under: Arc, over: Arc) -> float:
    """x where the upper semicircles on interleaving arcs (a, b) and (c, d)
    meet: subtracting (x - a)(x - b) + y^2 = 0 from (x - c)(x - d) + y^2 = 0
    leaves (c + d - a - b) x = cd - ab, and the midpoints differ."""
    (a, b), (c, d) = under, over
    return (c * d - a * b) / (c + d - a - b)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _arc_path(cx: float, cy: float, r: float, a0: float, a1: float,
              upper: bool) -> str:
    """SVG elliptical-arc path between two angles of a semicircle.

    Angles are measured from the positive x-axis; the upper flag picks the
    half-plane (SVG y grows downward, so upper arcs sweep clockwise).
    """
    sy = -1.0 if upper else 1.0
    x0, y0 = cx + r * math.cos(a0), cy + sy * r * math.sin(a0)
    x1, y1 = cx + r * math.cos(a1), cy + sy * r * math.sin(a1)
    sweep = 1 if upper else 0
    return (f"M {_fmt(x0)} {_fmt(y0)} "
            f"A {_fmt(r)} {_fmt(r)} 0 0 {sweep} {_fmt(x1)} {_fmt(y1)}")


def render_svg(p: ThreePagePresentation, spec: RenderSpec = RenderSpec()) -> str:
    s = spec.scale
    max_span = max((j - i for _, (i, j) in p.placed_arcs()), default=2)
    top = max_span / 2 * s + s
    width = (p.n + 1) * s
    height = 2 * top
    axis_y = top
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
           f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
           f'<line x1="{_fmt(s / 2)}" y1="{_fmt(axis_y)}" x2="{_fmt(width - s / 2)}" '
           f'y2="{_fmt(axis_y)}" stroke="#444" stroke-width="1"/>']

    def x_of(point: float) -> float:
        return point * s

    # page 2 below, page 3 above; page 1 above with gaps at crossings
    over_arcs = p.pages[2]
    for page in (1, 2, 0):
        color = PAGE_COLORS[page]
        upper = page != 1
        for (i, j) in p.pages[page]:
            cx, r = (i + j) / 2 * s, (j - i) / 2 * s
            cuts: list[float] = []
            if page == 0:
                for over in over_arcs:
                    if arcs_interleave((i, j), over):
                        x = crossing_position((i, j), over) * s
                        cuts.append(math.acos(max(-1.0, min(1.0, (x - cx) / r))))
            spans = sorted(cuts)
            angles = [math.pi]
            for a in reversed(spans):
                angles += [a + GAP_RADIANS, a - GAP_RADIANS]
            angles.append(0.0)
            for a0, a1 in zip(angles[0::2], angles[1::2]):
                out.append(f'<path d="{_arc_path(cx, axis_y, r, a0, a1, upper)}" '
                           f'fill="none" stroke="{color}" stroke-width="2"/>')
    for pt in range(1, p.n + 1):
        out.append(f'<circle cx="{_fmt(x_of(pt))}" cy="{_fmt(axis_y)}" r="2.5" '
                   f'fill="#000"/>')
        if spec.labels:
            out.append(f'<text x="{_fmt(x_of(pt))}" y="{_fmt(axis_y + 14)}" '
                       f'font-size="10" text-anchor="middle">{pt}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_ascii(p: ThreePagePresentation, spec: RenderSpec = RenderSpec(format="ascii")) -> str:
    """Rough text picture: one band per page, nested arcs on separate rows."""
    width = 2 * p.n + 1

    def column(point: int) -> int:
        return 2 * point - 1

    def band(page: int) -> list[str]:
        arcs = sorted(p.pages[page], key=lambda a: (a[1] - a[0], a[0]))
        depth: dict[tuple[int, int], int] = {}
        for arc in arcs:
            inner = [depth[b] for b in arcs if b != arc
                     and arc[0] <= b[0] and b[1] <= arc[1] and b in depth]
            depth[arc] = 1 + max(inner, default=0)
        rows = [[" "] * width for _ in range(max(depth.values(), default=0))]
        for (i, j), dep in depth.items():
            row = rows[dep - 1]
            row[column(i)] = row[column(j)] = "+"
            for c in range(column(i) + 1, column(j)):
                row[c] = "-"
        return ["".join(r) for r in rows]

    axis = [" "] * width
    for pt in range(1, p.n + 1):
        axis[column(pt)] = "*"
    lines: list[str] = []
    lines += [f"P3    | {row}" for row in reversed(band(2))]
    lines += [f"P1    | {row}" for row in reversed(band(0))]
    lines.append(f"axis  | {''.join(axis)}")
    lines += [f"P2    | {row}" for row in band(1)]
    if spec.labels:
        labels = [" "] * width
        for pt in range(1, p.n + 1):
            mark = str(pt)[-1]
            labels[column(pt)] = mark
        lines.append(f"      | {''.join(labels)}")
    return "\n".join(lines) + "\n"
