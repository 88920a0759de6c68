"""Exact projective-plane kernel over the integers.

Points and lines are integer homogeneous triples, canonicalized to coprime
entries with the first nonzero entry positive (`normalize`).  All predicates
are exact; no tolerances anywhere.

The curve's one-sided branch J is modelled as the line z = 0, the line at
infinity of the affine chart.  Points handed to the chart predicates must
lie off J.  A hull (`_hull_cycle`), and every decision of the six-point
classification, is read from one table of chart orientations that computes
each triple's determinant once (`orientation_table`), or from just the signs
of the unordered triples (`orientation_signs`).

`circle_sort` orders full-circle vectors exactly; with the double-angle
embedding (dx, dy) -> (dx^2 - dy^2, 2 dx dy) of `tests/chart.py`, which is
injective on lines through the origin, it orders directions mod pi.  No
command calls it: the test oracles do.
"""

from __future__ import annotations

from functools import cmp_to_key
from itertools import combinations
from math import gcd
from typing import Sequence

Triple = tuple[int, int, int]


class DegeneratePositionError(ValueError):
    """Raised when an input configuration violates a genericity precondition."""


# ---------------------------------------------------------------------------
# canonical homogeneous triples

def normalize(x: int, y: int, z: int) -> Triple:
    if x == 0 and y == 0 and z == 0:
        raise ValueError("zero triple is not a projective object")
    g = gcd(gcd(abs(x), abs(y)), abs(z))
    x, y, z = x // g, y // g, z // g
    for c in (x, y, z):
        if c != 0:
            if c < 0:
                x, y, z = -x, -y, -z
            break
    return (x, y, z)


def det3(a: Sequence[int], b: Sequence[int], c: Sequence[int]) -> int:
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def sign(v) -> int:
    return (v > 0) - (v < 0)


# ---------------------------------------------------------------------------
# the chart: J is the line z = 0, playing "line at infinity"

def chart_rep(p: Triple) -> Triple:
    """Representative of p scaled so z > 0 (p must be off J)."""
    if p[2] == 0:
        raise DegeneratePositionError("point lies on the distinguished line")
    return p if p[2] > 0 else (-p[0], -p[1], -p[2])


def chart_orient(p: Triple, q: Triple, r: Triple) -> int:
    """Affine orientation in the chart complementing J (+1 = counterclockwise)."""
    return sign(det3(chart_rep(p), chart_rep(q), chart_rep(r)))


def _half(v: tuple[int, int]) -> int:
    # 0 for upper half-circle (y>0 or (y==0, x>0)), 1 for lower
    if v[1] != 0:
        return 0 if v[1] > 0 else 1
    return 0 if v[0] > 0 else 1


def circle_less(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Strict counterclockwise order from angle 0 on full-circle vectors."""
    ha, hb = _half(a), _half(b)
    if ha != hb:
        return ha < hb
    c = a[0] * b[1] - a[1] * b[0]
    if c == 0:
        raise DegeneratePositionError("equal circular positions")
    return c > 0


def circle_sort(items: list, key) -> list:
    """Sort by circular position starting at angle 0 (exact comparisons)."""

    def cmp(x, y):
        kx, ky = key(x), key(y)
        if kx == ky:
            raise DegeneratePositionError("equal circular positions")
        return -1 if circle_less(kx, ky) else 1

    return sorted(items, key=cmp_to_key(cmp))


def orientation_signs(pts: dict) -> tuple:
    """Chart orientation of each unordered triple of labels of `pts` (label ->
    point off J), in `combinations` order of its labels: one chart_rep per
    point and one 3x3 determinant (det3, written out) per triple."""
    out = []
    for (ax, ay, az), (bx, by, bz), (cx, cy, cz) in \
            combinations([chart_rep(p) for p in pts.values()], 3):
        d = (ax * (by * cz - bz * cy) - ay * (bx * cz - bz * cx)
             + az * (bx * cy - by * cx))
        out.append((d > 0) - (d < 0))
    return tuple(out)


def orientation_table(pts: dict) -> dict:
    """Chart orientation of every ordered triple of distinct labels of `pts`,
    from `orientation_signs`."""
    signs = {}
    for (a, b, c), s in zip(combinations(pts, 3), orientation_signs(pts)):
        signs[a, b, c] = signs[b, c, a] = signs[c, a, b] = s
        signs[b, a, c] = signs[a, c, b] = signs[c, b, a] = -s
    return signs


def _hull_cycle(signs: dict, labels: Sequence):
    """Counterclockwise hull cycle of the points `labels`, starting at its
    smallest label, and their sorted interior labels, read from an
    orientation table: [ab] is a hull edge iff no other point lies to the
    right of a -> b."""
    for t in combinations(labels, 3):
        if signs[t] == 0:
            raise DegeneratePositionError("collinear triple {},{},{}".format(*t))
    succ = {}
    for a in labels:
        for b in labels:
            if b == a:
                continue
            for c in labels:
                if c != a and c != b and signs[a, b, c] < 0:
                    break
            else:
                succ[a] = b
                break
    cycle = [min(succ)]
    while succ[cycle[-1]] != cycle[0]:
        cycle.append(succ[cycle[-1]])
    return tuple(cycle), tuple(sorted(set(labels) - set(succ)))


def _raw_cross(u: Sequence[int], v: Sequence[int]) -> Triple:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )

