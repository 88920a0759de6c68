"""Exact projective-plane kernel over the integers.

Points, lines and conics are integer tuples, canonicalized to coprime
entries with the first nonzero entry positive (`normalize`).  All predicates
are exact; no tolerances anywhere.

The curve's one-sided branch J is modelled as the line z = 0, the line at
infinity of the affine chart.  Points handed to the chart predicates must
lie off J.  The hull of the points 2..6 (`_hull_cycle`), and every
decision of the six-point classification, is read from the orientation
table of six points labelled 1..6 (`orientation_table`): the signs of
their 20 triples and those negated, 40 entries with [abc] at
`slot(a, b, c)`.  The signs (`orientation_signs`) are straight-line
integer code, so a classification pays for its arithmetic and its table
reads, not for a loop or a call per triple: each [abc] is a . (b x c), and
b x c is one of the ten pair minors of the last five points.  The hull
reads its edge tests through one plan built at import.  `turn_order`
ranks labels by turns, products of table signs.

`circle_sort` orders full-circle vectors exactly; with the double-angle
embedding (dx, dy) -> (dx^2 - dy^2, 2 dx dy) of `tests/chart.py`, which is
injective on lines through the origin, it orders directions mod pi.  No
command calls it: the test oracles do.
"""

from __future__ import annotations

from functools import cmp_to_key
from itertools import combinations
from math import gcd
from operator import itemgetter
from typing import Sequence

Triple = tuple[int, int, int]


class DegeneratePositionError(ValueError):
    """Raised when an input configuration violates a genericity precondition."""


# ---------------------------------------------------------------------------
# canonical integer tuples

def normalize(*v: int):
    """The integers `v` over their gcd, with the first nonzero one positive:
    the canonical form of a point, a line or a conic."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero triple is not a projective object")
    if next(filter(None, v)) < 0:
        g = -g
    return tuple([c // g for c in v])


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


# the key (a, b, c) of each entry of an orientation table: the triples of
# labels 1..6 in `combinations` order, then the same with their first two
# labels swapped, so their signs negated
TABLE_KEYS = (*combinations(range(1, 7), 3), *[
    (b, a, c) for a, b, c in combinations(range(1, 7), 3)])
# (a, b, c) of distinct labels in 1..6 -> the entry of [abc]: the cyclic
# shifts of a key read its entry
_SLOTS = {t: i for i, (a, b, c) in enumerate(TABLE_KEYS)
          for t in ((a, b, c), (b, c, a), (c, a, b))}
_LABELS, _BY_LABEL = {1, 2, 3, 4, 5, 6}, itemgetter(1, 2, 3, 4, 5, 6)


def slot(a: int, b: int, c: int) -> int:
    """The index of [abc] in an orientation table, for distinct labels 1..6."""
    return _SLOTS[a, b, c]


def orientation_signs(pts: dict) -> tuple:
    """Chart orientation of each triple a < b < c of the labels 1..6 of
    `pts` (label -> point off J), in `combinations` order.  Straight-line
    code: [abc] = a . (b x c), and b x c is one of the ten pair minors of
    the last five points, each written out once."""
    if pts.keys() != _LABELS:
        raise ValueError("orientation signs take six points labelled 1..6, "
                         f"not labels {tuple(pts)}")
    (ax, ay, az), (bx, by, bz), (cx, cy, cz), (dx, dy, dz), (ex, ey, ez), \
        (fx, fy, fz) = map(chart_rep, _BY_LABEL(pts))
    bc0, bc1, bc2 = by * cz - bz * cy, bz * cx - bx * cz, bx * cy - by * cx
    bd0, bd1, bd2 = by * dz - bz * dy, bz * dx - bx * dz, bx * dy - by * dx
    be0, be1, be2 = by * ez - bz * ey, bz * ex - bx * ez, bx * ey - by * ex
    bf0, bf1, bf2 = by * fz - bz * fy, bz * fx - bx * fz, bx * fy - by * fx
    cd0, cd1, cd2 = cy * dz - cz * dy, cz * dx - cx * dz, cx * dy - cy * dx
    ce0, ce1, ce2 = cy * ez - cz * ey, cz * ex - cx * ez, cx * ey - cy * ex
    cf0, cf1, cf2 = cy * fz - cz * fy, cz * fx - cx * fz, cx * fy - cy * fx
    de0, de1, de2 = dy * ez - dz * ey, dz * ex - dx * ez, dx * ey - dy * ex
    df0, df1, df2 = dy * fz - dz * fy, dz * fx - dx * fz, dx * fy - dy * fx
    ef0, ef1, ef2 = ey * fz - ez * fy, ez * fx - ex * fz, ex * fy - ey * fx
    return tuple([(v > 0) - (v < 0) for v in (
        ax * bc0 + ay * bc1 + az * bc2, ax * bd0 + ay * bd1 + az * bd2,
        ax * be0 + ay * be1 + az * be2, ax * bf0 + ay * bf1 + az * bf2,
        ax * cd0 + ay * cd1 + az * cd2, ax * ce0 + ay * ce1 + az * ce2,
        ax * cf0 + ay * cf1 + az * cf2, ax * de0 + ay * de1 + az * de2,
        ax * df0 + ay * df1 + az * df2, ax * ef0 + ay * ef1 + az * ef2,
        bx * cd0 + by * cd1 + bz * cd2, bx * ce0 + by * ce1 + bz * ce2,
        bx * cf0 + by * cf1 + bz * cf2, bx * de0 + by * de1 + bz * de2,
        bx * df0 + by * df1 + bz * df2, bx * ef0 + by * ef1 + bz * ef2,
        cx * de0 + cy * de1 + cz * de2, cx * df0 + cy * df1 + cz * df2,
        cx * ef0 + cy * ef1 + cz * ef2, dx * ef0 + dy * ef1 + dz * ef2)])


def orientation_table(pts: dict) -> tuple:
    """The table of six points labelled 1..6: their `orientation_signs`
    and those negated, 40 entries with [abc] at `slot(a, b, c)`."""
    signs = orientation_signs(pts)
    return (*signs, *[-s for s in signs])


# per label a of 2..6, per other label b, the getter of [abc] over the
# three other labels c
_HULL_ROWS = tuple(
    (a, tuple((b, itemgetter(*[slot(a, b, c) for c in range(2, 7)
                               if c != a and c != b]))
              for b in range(2, 7) if b != a))
    for a in range(2, 7))


def _hull_cycle(signs: tuple):
    """Counterclockwise hull cycle of the points 2..6, starting at its
    smallest label, and their sorted interior labels, read from an
    orientation table: [ab] is a hull edge iff no other point lies to the
    right of a -> b.  Entries 10..19 are the triples of 2..6 in
    `combinations` order, so the first zero among them names its triple."""
    triple_signs = signs[10:20]
    if 0 in triple_signs:
        raise DegeneratePositionError("collinear triple {},{},{}".format(
            *TABLE_KEYS[10 + triple_signs.index(0)]))
    succ = {}
    for a, row in _HULL_ROWS:
        for b, right in row:
            if -1 not in right(signs):
                succ[a] = b
                break
    cycle = [min(succ)]
    while succ[cycle[-1]] != cycle[0]:
        cycle.append(succ[cycle[-1]])
    return tuple(cycle), tuple(sorted({2, 3, 4, 5, 6}.difference(succ)))


def turn_order(signs: tuple, first, turns: Sequence) -> list | None:
    """`first`, then the labels that `turns` compare pairwise in their order,
    or None when a turn is 0.  A turn (y, x, s, slots) is s times the
    product of `signs` at `slots`, and x comes after y iff it is negative."""
    # the rank of x counts the labels that come between `first` and x
    rank = {}
    for y, x, s, slots in turns:
        for i in slots:
            s *= signs[i]
        if s == 0:
            return None
        rank[y] = rank.get(y, 0) + (s > 0)
        rank[x] = rank.get(x, 0) + (s < 0)
    return [first] + sorted(rank, key=rank.get)


def _raw_cross(u: Sequence[int], v: Sequence[int]) -> Triple:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )

