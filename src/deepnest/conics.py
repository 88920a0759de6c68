"""Exact conics, and Lemma 3's reducible cubics in pencil order.

A conic is a canonical integer 6-tuple (a, b, c, d, e, f) representing
    a x^2 + b xy + c y^2 + d xz + e yz + f z^2 = 0,
coprime with first nonzero entry positive (`geometry.normalize`).
`conic_pencil_events`, what `lemma3` runs, orders the five reducible cubics
through the six points of a valid table by turns of the conic pencil that a
quadratic (Cremona) transformation makes of them, each a fixed sign times a
product of orientation signs (`geometry.turn_order`): no point, Cremona map,
conic or pencil parameter is read or built.
`conic_through_5`, `polar_line` and the Cremona point map run in no command;
the test oracles use them, and `perfbench/tracer.py` traces them by name.
The integer pencil that gives the same order from the points, its canonical
event records and a circle-sorted reference are in `tests/chart.py`.
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
    slot,
    turn_order,
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
# Lemma 3's five reducible cubics in pencil order

# Per turn (12|34, y, x) of the events on the parameter circle: y, x, a fixed
# sign and the table slots of the brackets whose product it multiplies
_EVENT_TURNS = tuple((y, x, s, tuple(slot(*t) for t in brackets))
                     for y, x, s, brackets in (
    ("13", "16", -1, ()),
    ("13", "14", -1, ((2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 5, 6))),
    ("13", "15", -1, ((2, 4, 5), (2, 4, 6), (3, 4, 5), (3, 4, 6))),
    ("16", "14", +1, ((2, 3, 5), (2, 4, 5), (3, 5, 6), (4, 5, 6))),
    ("16", "15", +1, ((2, 3, 4), (2, 4, 5), (3, 4, 6), (4, 5, 6))),
    ("14", "15", -1, ((2, 3, 6), (2, 4, 5), (3, 4, 5), (3, 4, 6), (3, 5, 6),
                      (4, 5, 6))),
))


def conic_pencil_events(signs: tuple) -> list[str]:
    """The five reducible cubics through a valid configuration's six points,
    labeled by their line components "12".."16", in pencil order from "12".

    `signs` is the orientation table of the configuration relabeled to its
    class's canonical labels.  The order is that of the pencil of conics
    through 1 and the images of 2, 3, 6 under the quadratic map based at
    1, 5, 4, read from (1 : 0) at 12|34: its singular members 12|34, 13|24
    and 14|23 stand for "12", "13" and "16", the members through 5 and 4
    for "14" and "15".  Each turn (12|34, y, x) of two events is a fixed
    sign times a product of table signs (`_EVENT_TURNS`), and x comes after
    y iff it is negative.  The turns through 14|23 carry C^2, where

        C = [123][145][246][356] - [124][135][236][456]

    vanishes iff the six points lie on one conic, under any labels.
    `tests/test_table_proof.py` proves that neither degeneracy reaches this
    function: a valid table has no zero sign, so no turn is 0, and it fixes
    sign C != 0.
    """
    return turn_order(signs, "12", _EVENT_TURNS)


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
