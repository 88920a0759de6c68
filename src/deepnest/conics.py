"""Exact conics, conic pencils, and quadratic (Cremona) transformations.

A conic is a canonical integer 6-tuple (a, b, c, d, e, f) representing
    a x^2 + b xy + c y^2 + d xz + e yz + f z^2 = 0,
coprime with first nonzero entry positive (`geometry.normalize`).  Pencil
parameters (lam : mu) live on the parameter circle RP^1 as directions mod
pi, ordered by exact cross products of their representatives with mu >= 0.
`conic_pencil_events` does this in integer steps on positive multiples of
the generators, each a product of two line brackets, with no gcd and no
sort.  A conic's value from its coefficients, canonical event records and
the circle-sorted reference order are test oracles in `tests/chart.py`.
"""

from __future__ import annotations

from typing import Sequence

from .geometry import (
    DegeneratePositionError,
    Triple,
    _raw_cross,
    det3,
    normalize,
    sign,
)

Conic = tuple[int, int, int, int, int, int]


def conic_matrix2(q: Conic):
    """The integer matrix 2M with x^T M x the conic's quadratic form."""
    a, b, c, d, e, f = q
    return ((2 * a, b, d), (b, 2 * c, e), (d, e, 2 * f))


def polar_line(q: Conic, p: Triple) -> Triple:
    m = conic_matrix2(q)
    v = tuple(sum(m[i][k] * p[k] for k in range(3)) for i in range(3))
    if all(c == 0 for c in v):
        raise DegeneratePositionError("pole is a singular point of the conic")
    return normalize(*v)


def _raw_pair(l1: Triple, l2: Triple) -> tuple[int, ...]:
    """Coefficients of the line pair (l1 . X)(l2 . X), unscaled."""
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    return (a1 * a2, a1 * b2 + b1 * a2, b1 * b2,
            a1 * c2 + c1 * a2, b1 * c2 + c1 * b2, c1 * c2)


def conic_through_5(pts: Sequence[Triple]) -> Conic:
    """The unique conic through five points; degenerate input positions
    (fewer than five independent conditions) raise.

    Bracket form, with [uvw] = det3(u, v, w) and [abX] the line through
    a and b as a linear form in X:

        Q(X) = [abX][cdX]*[ace][bde] - [acX][bdX]*[abe][cde]

    At a, b, c and d each term has a bracket with a repeated point, and at
    e the two terms are equal.  Q vanishes identically exactly when two
    points coincide or four are collinear, which is exactly when the conic
    is not unique.
    """
    if len(pts) != 5:
        raise ValueError("need exactly 5 points")
    a, b, c, d, e = pts
    s = det3(a, c, e) * det3(b, d, e)
    t = det3(a, b, e) * det3(c, d, e)
    p = _raw_pair(_raw_cross(a, b), _raw_cross(c, d))
    q = _raw_pair(_raw_cross(a, c), _raw_cross(b, d))
    coeffs = [s * u - t * v for u, v in zip(p, q)]
    if all(v == 0 for v in coeffs):
        raise DegeneratePositionError("five points do not determine a unique conic")
    return normalize(*coeffs)


# ---------------------------------------------------------------------------
# pencils of conics through four points

def conic_pencil_events(base: Sequence[Triple], extras=()):
    """The pencil of conics through four base points, in integer steps.

    `base` gives the four base points (positions 1..4 for labels); `extras`
    is a sequence of (label, point) pairs.  Returns the pencil's generators
    (l12 . X)(l34 . X) and (l13 . X)(l24 . X), each built from unreduced
    line brackets and multiplied by the sign of its first nonzero
    coefficient, so a positive multiple of its canonical conic, and its
    events as (kind, label, lam, mu) in pencil order: the three singular
    members ("singular", labeled like "12|34" by base positions) and one
    "through-point" event per extra.  (lam : mu) is taken with respect to
    these generators: "12|34" is (1 : 0), "13|24" is (0 : 1), and "14|23"
    and each extra lie at (-vb : va), with va and vb the generators
    evaluated at the diagonal point or the extra point, each as the product
    of its two line brackets, the first one sign-fixed.  The parameters are
    directions mod pi: stored with mu >= 0, they are ranked by cross
    products, counterclockwise from (1 : 0).  Collinear base
    points, a point on every member and two coincident events raise
    `DegeneratePositionError`, checked in that order.
    """
    if len(base) != 4:
        raise ValueError("a conic pencil needs 4 base points")
    for i, j, k in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        if det3(base[i], base[j], base[k]) == 0:
            raise DegeneratePositionError(
                f"base points {i + 1},{j + 1},{k + 1} are collinear")
    b1, b2, b3, b4 = base
    # each generator's first line carries its lead sign
    lines, gens = [], []
    for l, m in ((_raw_cross(b1, b2), _raw_cross(b3, b4)),
                 (_raw_cross(b1, b3), _raw_cross(b2, b4))):
        g = _raw_pair(l, m)
        if next(c for c in g if c) < 0:
            l, g = (-l[0], -l[1], -l[2]), tuple([-c for c in g])
        lines += l, m
        gens.append(g)
    ga, gb = gens
    (u0, u1, u2), (u3, u4, u5), (w0, w1, w2), (w3, w4, w5) = lines
    labels = ["12|34", "13|24", "14|23"]
    points = [_raw_cross(_raw_cross(b1, b4), _raw_cross(b2, b3))]
    for label, p in extras:
        labels.append(label)
        points.append(p)
    params = [(1, 0), (0, 1)]
    for x, y, z in points:
        va = (u0 * x + u1 * y + u2 * z) * (u3 * x + u4 * y + u5 * z)
        vb = (w0 * x + w1 * y + w2 * z) * (w3 * x + w4 * y + w5 * z)
        if va == 0 and vb == 0:
            raise DegeneratePositionError("point lies on every pencil member")
        # mu >= 0; at mu = 0 the event is 12|34's, reported just below
        params.append((-vb, va) if va > 0 else (vb, -va))
    # rank[j] counts the events before event j; a zero cross product is a
    # repeated parameter, reported for the first such pair in event order
    rank = [0] * len(params)
    for j in range(1, len(params)):
        xj, yj = params[j]
        for i in range(j):
            xi, yi = params[i]
            c = xi * yj - yi * xj
            if c == 0:
                raise DegeneratePositionError(
                    f"coincident pencil events {labels[i]} and {labels[j]}")
            if c > 0:
                rank[j] += 1
            else:
                rank[i] += 1
    events = [None] * len(params)
    for i, r in enumerate(rank):
        events[r] = ("singular" if i < 3 else "through-point", labels[i],
                     *params[i])
    return ga, gb, events


# ---------------------------------------------------------------------------
# quadratic transformations

class CremonaMap:
    """The quadratic involution based at three non-collinear points.

    Normalized so that the unit point of the base frame is the sum of the
    three canonical base representatives; with that choice the map is an
    exact involution on points off the base lines, and each base line is
    contracted to the opposite base point.
    """

    def __init__(self, b1: Triple, b2: Triple, b3: Triple):
        if det3(b1, b2, b3) == 0:
            raise DegeneratePositionError("base points are collinear")
        self.base = p, q, r = (normalize(*b1), normalize(*b2), normalize(*b3))
        s = sign(det3(p, q, r))
        # T p expresses p in base coordinates: T = adj(B) arranged so T b_i = e_i
        self._t = tuple(tuple(s * c for c in row) for row in
                        (_raw_cross(q, r), _raw_cross(r, p), _raw_cross(p, q)))

    def point(self, p: Triple) -> Triple:
        """Image of a point; base points blow up (error), base lines contract."""
        x, y, z = p
        (t0, t1, t2), (t3, t4, t5), (t6, t7, t8) = self._t
        u = t0 * x + t1 * y + t2 * z
        v = t3 * x + t4 * y + t5 * z
        w = t6 * x + t7 * y + t8 * z
        if (u == 0) + (v == 0) + (w == 0) >= 2:
            raise DegeneratePositionError("base point has no well-defined image")
        # the image (vw : uw : uv) in base coordinates, back in the plane
        u, v, w = v * w, u * w, u * v
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = self.base
        return normalize(a0 * u + b0 * v + c0 * w, a1 * u + b1 * v + c1 * w,
                         a2 * u + b2 * v + c2 * w)


def cremona(b1: Triple, b2: Triple, b3: Triple) -> CremonaMap:
    return CremonaMap(b1, b2, b3)
