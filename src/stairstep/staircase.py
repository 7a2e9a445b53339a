"""Staircase diagram rendering for two-variable monomial ideals.

The lattice point (a, b) stands for x^a*y^b; points inside the ideal
are shaded, the minimal generators are the inner corners.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .monomials import MonomialIdeal, Monomial


@dataclass(frozen=True)
class StaircaseOutline:
    """Inner corners of the staircase plus the boundary polyline."""

    corners: tuple[tuple[int, int], ...]
    outline: tuple[tuple[int, int], ...]
    xmax: int
    ymax: int


def staircase_outline(ideal: MonomialIdeal) -> StaircaseOutline:
    gens = ideal.generators
    corners = tuple((g.xdeg, g.ydeg) for g in gens)
    xmax = gens[0].xdeg + 2
    ymax = gens[-1].ydeg + 2
    path: list[tuple[int, int]] = [(xmax, gens[0].ydeg)]
    for i, g in enumerate(gens):
        path.append((g.xdeg, g.ydeg))
        if i + 1 < len(gens):
            path.append((g.xdeg, gens[i + 1].ydeg))
    path.append((gens[-1].xdeg, ymax))
    return StaircaseOutline(corners, tuple(path), xmax, ymax)


def _row_starts(outline: StaircaseOutline) -> list[int]:
    """Where each row b <= ymax enters M: min a_i over corners with b_i <= b, else xmax + 1."""
    firsts = {b: a for a, b in outline.corners}
    return list(accumulate((firsts.get(b, outline.xmax + 1) for b in range(outline.ymax + 1)), min))


def render_ascii(ideal: MonomialIdeal) -> str:
    """Lattice picture with y up and x right.

    ``*`` marks a minimal generator, ``#`` a monomial inside M,
    ``.`` a standard monomial.
    """
    outline = staircase_outline(ideal)
    starts = _row_starts(outline)
    width = max(2, len(str(outline.ymax)))
    rows = []
    for b in range(outline.ymax, -1, -1):
        at = starts[b]
        star = at < (starts[b - 1] if b else outline.xmax + 1)  # starts drops on a corner's row
        rows.append(f"{b:>{width}} " + " ".join("." * at + "*" * star + "#" * (outline.xmax + 1 - at - star)))
    rows.append(" " * (width + 1) + " ".join(f"{a}"[-1] for a in range(outline.xmax + 1)))
    rows.append(f"M = {ideal}")
    return "\n".join(rows)


def render_svg(ideal: MonomialIdeal) -> str:
    """SVG picture: shaded region for M, axes labeled x right and y up."""
    outline = staircase_outline(ideal)
    cell = 40
    pad = 50
    w = outline.xmax * cell + 2 * pad
    h = outline.ymax * cell + 2 * pad

    def px(a: int) -> int:
        return pad + a * cell

    def py(b: int) -> int:
        return h - pad - b * cell

    # shaded region: staircase boundary closed off at the top-right
    pts = [(outline.xmax, outline.corners[0][1])]
    pts.extend(outline.outline[1:])
    pts.append((outline.corners[-1][0], outline.ymax))
    pts.append((outline.xmax, outline.ymax))
    region = " ".join(f"{px(a)},{py(b)}" for a, b in pts)
    boundary = " ".join(f"{px(a)},{py(b)}" for a, b in outline.outline)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<polygon points="{region}" fill="#c8c8c8" stroke="none"/>',
        f'<polyline points="{boundary}" fill="none" stroke="black" stroke-width="2"/>',
    ]
    # axes
    parts.append(
        f'<line x1="{px(0)}" y1="{py(0)}" x2="{px(outline.xmax) + 20}" y2="{py(0)}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{px(0)}" y1="{py(0)}" x2="{px(0)}" y2="{py(outline.ymax) - 20}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{px(outline.xmax) + 25}" y="{py(0) + 5}" font-size="16">x</text>'
    )
    parts.append(
        f'<text x="{px(0) - 5}" y="{py(outline.ymax) - 25}" font-size="16">y</text>'
    )
    # lattice points and generator markers with labels
    for b, at in enumerate(_row_starts(outline)):
        for a in range(outline.xmax + 1):
            parts.append(
                f'<circle cx="{px(a)}" cy="{py(b)}" r="3" '
                f'fill="{"black" if a >= at else "white"}" stroke="black"/>'
            )
    for a, b in outline.corners:
        parts.append(
            f'<circle cx="{px(a)}" cy="{py(b)}" r="6" fill="black"/>'
        )
        parts.append(
            f'<text x="{px(a) + 8}" y="{py(b) - 8}" font-size="14">'
            f"{Monomial(a, b)}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts)
