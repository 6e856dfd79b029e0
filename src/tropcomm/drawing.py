"""Plane tropical geometry for 3x3 matrices and SVG rendering.

Points of the tropical projective plane are drawn in the affine chart
(x2 - x1, x3 - x1).  For a Kleene star M the image im(M) is the classical
polygon {x : x_i - x_j <= M[i][j]}, a hexagon in general; tropical segments
between column points are the bent two-leg paths of the min-plus hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .core import TropMatrix, TropVector, kleene_star, trop_add

__all__ = [
    "tp2_chart",
    "tropical_segment",
    "region_vertices",
    "intersection_region_vertices",
    "render_polytrope_svg",
]

Point = tuple[Fraction, Fraction]

_PALETTE = ("#4e79a7", "#e15759", "#59a14f", "#b07aa1", "#f28e2b")


def tp2_chart(v: TropVector) -> Point:
    """Map a finite vector of length 3 to (v2 - v1, v3 - v1)."""
    if v.n != 3 or not all(e.is_finite for e in v):
        raise ValueError("need a finite vector of length 3")
    a, b, c = (e.value for e in v)
    return (b - a, c - a)  # type: ignore[operator]


def tropical_segment(x: TropVector, y: TropVector) -> list[Point]:
    """Chart vertices of the min-plus segment from x to y (2 legs at most).

    The segment is {(lam + x) min y : lam}, affine between the breakpoints
    lam = y_i - x_i; we emit the chart image of every breakpoint, endpoints
    included, consecutive duplicates removed.
    """
    if x.n != 3 or y.n != 3:
        raise ValueError("tropical_segment is implemented for length 3")
    xv = [e.value for e in x]
    yv = [e.value for e in y]
    if None in xv or None in yv:
        raise ValueError("segment endpoints must be finite")
    lams = sorted({yi - xi for xi, yi in zip(xv, yv)})
    pts: list[Point] = []
    for lam in lams:
        z = TropVector.of([min(lam + xi, yi) for xi, yi in zip(xv, yv)])
        p = tp2_chart(z)
        if not pts or pts[-1] != p:
            pts.append(p)
    return pts


def region_vertices(m: TropMatrix) -> list[Point]:
    """Vertices of {x : x_i - x_j <= m[i][j]} in the chart, counterclockwise,
    for any finite 3x3 matrix m.

    The set is the one of s = kleene_star(m), which raises
    :class:`~tropcomm.core.NegativeCycleError` exactly when it is empty.
    All six constraints of s are tight, and the triangle inequality of s
    puts each of the hexagon's corners
    (-s12, -s13), (s23 - s13, -s13), (s21, s21 - s23),
    (s21, s31), (s31 - s32, s31), (-s12, s32 - s12)
    inside the other constraints; a corner equal to the previous one or to
    the first one is dropped, so the list has one to six points.
    """
    if m.n != 3 or not m.all_finite():
        raise ValueError("need a finite 3x3 matrix")
    (_, s12, s13), (s21, _, s23), (s31, s32, _) = (
        [e.value for e in row] for row in kleene_star(m).rows
    )
    out: list[Point] = []
    for p in ((-s12, -s13), (s23 - s13, -s13), (s21, s21 - s23),
              (s21, s31), (s31 - s32, s31), (-s12, s32 - s12)):
        if not out or p not in (out[0], out[-1]):
            out.append(p)
    return out


def intersection_region_vertices(a: TropMatrix, b: TropMatrix) -> list[Point]:
    """Vertices of im(a*) cap im(b*) = im((a+b)*), for finite 3x3 a, b."""
    return region_vertices(trop_add(a, b))


def _fmt(q: Fraction) -> str:
    try:
        return f"{float(q):.3f}"
    except OverflowError:
        raise ValueError("a coordinate is too large to draw") from None


@dataclass(frozen=True)
class SvgDocument:
    text: str
    point_count: int
    region_vertex_counts: tuple[int, ...]
    intersection_vertices: tuple[Point, ...]


def render_polytrope_svg(matrices: list[TropMatrix]) -> SvgDocument:
    """Draw column points, tropical hull edges, and image regions as SVG 1.1.

    Every matrix must be 3x3 with finite entries and a nonempty image:
    :func:`region_vertices`, called first on each matrix in turn, raises
    ValueError otherwise (NegativeCycleError for an empty image).  Regions
    are drawn from the Kleene star of each matrix (for a polytrope that is
    the matrix itself); with exactly two matrices the intersection region
    im((A+B)*) is filled as well.  Output is deterministic for fixed input.
    """
    if not matrices:
        raise ValueError("nothing to draw")
    layers = []
    all_pts: list[Point] = []
    for idx, m in enumerate(matrices):
        region = region_vertices(m)
        cols = [m.column(j) for j in range(3)]
        pts = [tp2_chart(c) for c in cols]
        segs = [
            tropical_segment(cols[i], cols[j])
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        layers.append((idx, pts, segs, region))
        all_pts.extend(p for s in segs for p in s)  # the column points too
        all_pts.extend(region)

    inter: tuple[Point, ...] = ()
    if len(matrices) == 2:
        inter = tuple(intersection_region_vertices(matrices[0], matrices[1]))
        all_pts.extend(inter)

    us = [p[0] for p in all_pts]
    vs = [p[1] for p in all_pts]
    du = max(max(us) - min(us), Fraction(1))
    dv = max(max(vs) - min(vs), Fraction(1))
    pad_u, pad_v = du / 10, dv / 10
    x0, y0 = min(us) - pad_u, -(max(vs) + pad_v)
    width, height = du + 2 * pad_u, dv + 2 * pad_v
    scale = max(width, height)
    stroke = scale / 200
    radius = scale / 80

    def xy(points: Iterable[Point]) -> str:
        return " ".join(f"{_fmt(u)},{_fmt(-v)}" for u, v in points)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(width)} {_fmt(height)}">',
    ]
    if inter:
        out.append(
            f'  <polygon class="intersection" points="{xy(inter)}" '
            f'fill="#bab0ac" fill-opacity="0.6" stroke="none"/>'
        )
    for idx, pts, segs, region in layers:
        color = _PALETTE[idx % len(_PALETTE)]
        out.append(f'  <g class="polytrope-{idx}">')
        out.append(
            f'    <polygon class="region" points="{xy(region)}" '
            f'fill="{color}" fill-opacity="0.15" stroke="none"/>'
        )
        for seg in segs:
            out.append(
                f'    <polyline class="hull-edge" points="{xy(seg)}" '
                f'fill="none" stroke="{color}" stroke-width="{_fmt(stroke)}"/>'
            )
        for p in pts:
            out.append(
                f'    <circle class="vertex" cx="{_fmt(p[0])}" cy="{_fmt(-p[1])}" '
                f'r="{_fmt(radius)}" fill="{color}"/>'
            )
        out.append("  </g>")
    out.append("</svg>")
    return SvgDocument(
        text="\n".join(out) + "\n",
        point_count=3 * len(matrices),
        region_vertex_counts=tuple(len(region) for *_, region in layers),
        intersection_vertices=inter,
    )
