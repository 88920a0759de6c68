"""Exact conics, conic pencils, and quadratic (Cremona) transformations.

A conic is a canonical integer 6-tuple (a, b, c, d, e, f) representing
    a x^2 + b xy + c y^2 + d xz + e yz + f z^2 = 0,
coprime with first nonzero entry positive.  Pencil parameters live on the
parameter circle RP^1 and are compared exactly through the same double-angle
device used for line directions.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Sequence

from .geometry import (
    DegeneratePositionError,
    Triple,
    _raw_cross,
    circle_sort,
    cross,
    det3,
    double_angle,
    line_through,
    normalize,
    sign,
)

Conic = tuple[int, int, int, int, int, int]


def _canon6(v: Sequence[int]) -> Conic:
    if all(c == 0 for c in v):
        raise ValueError("zero conic")
    g = 0
    for c in v:
        g = gcd(g, abs(c))
    v = [c // g for c in v]
    for c in v:
        if c != 0:
            if c < 0:
                v = [-x for x in v]
            break
    return tuple(v)  # type: ignore[return-value]


def conic_eval(q: Conic, p: Triple) -> int:
    x, y, z = p
    a, b, c, d, e, f = q
    return a * x * x + b * x * y + c * y * y + d * x * z + e * y * z + f * z * z


def conic_matrix2(q: Conic):
    """The integer matrix 2M with x^T M x the conic's quadratic form."""
    a, b, c, d, e, f = q
    return ((2 * a, b, d), (b, 2 * c, e), (d, e, 2 * f))


def conic_det2(q: Conic) -> int:
    """det(2M); zero exactly for degenerate (rank <= 2) conics."""
    return det3(*conic_matrix2(q))


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
    return _canon6(coeffs)


# ---------------------------------------------------------------------------
# pencils of conics through four points

class PencilEvent(NamedTuple):
    kind: str              # "singular" | "through-point"
    label: str
    parameter: tuple[int, int]   # canonical (lam : mu) on the parameter circle
    generators: tuple[Conic, Conic]   # the pencil's members 12|34 and 13|24

    @property
    def member(self) -> Conic:
        """The pencil member lam * 12|34 + mu * 13|24, built on read."""
        return pencil_member(*self.generators, *self.parameter)


def _pair_conic(l1: Triple, l2: Triple) -> Conic:
    return _canon6(_raw_pair(l1, l2))


def _canon_param(lam: int, mu: int) -> tuple[int, int]:
    if lam == 0 and mu == 0:
        raise ValueError("zero parameter")
    g = gcd(abs(lam), abs(mu))
    lam, mu = lam // g, mu // g
    if lam < 0 or (lam == 0 and mu < 0):
        lam, mu = -lam, -mu
    return lam, mu


def pencil_member(ga: Conic, gb: Conic, lam: int, mu: int) -> Conic:
    v = tuple(lam * ga[i] + mu * gb[i] for i in range(6))
    return _canon6(v)


def conic_pencil_events(base: Sequence[Triple], extras=()):
    """Events met by the pencil of conics through four general-position points.

    `base` gives the four base points (positions 1..4 for labels); `extras`
    is a sequence of (label, point) pairs.  Returns the events in
    cyclic order of the pencil parameter: the three singular members, labeled
    like "12|34" by base positions, and one "through-point" event per extra.
    """
    if len(base) != 4:
        raise ValueError("a conic pencil needs 4 base points")
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(j + 1, 4):
                if det3(base[i], base[j], base[k]) == 0:
                    raise DegeneratePositionError(
                        f"base points {i + 1},{j + 1},{k + 1} are collinear")
    l12, l34 = line_through(base[0], base[1]), line_through(base[2], base[3])
    l13, l24 = line_through(base[0], base[2]), line_through(base[1], base[3])
    l14, l23 = line_through(base[0], base[3]), line_through(base[1], base[2])
    gens = (_pair_conic(l12, l34), _pair_conic(l13, l24))

    def param_through(p: Triple) -> tuple[int, int]:
        va, vb = (conic_eval(g, p) for g in gens)
        if va == 0 and vb == 0:
            raise DegeneratePositionError("point lies on every pencil member")
        return _canon_param(-vb, va)

    events = [
        PencilEvent("singular", "12|34", (1, 0), gens),
        PencilEvent("singular", "13|24", (0, 1), gens),
        PencilEvent("singular", "14|23", param_through(cross(l14, l23)), gens),
    ] + [PencilEvent("through-point", label, param_through(p), gens)
         for label, p in extras]
    seen = {}
    for ev in events:
        if ev.parameter in seen:
            raise DegeneratePositionError(
                f"coincident pencil events {seen[ev.parameter]} and {ev.label}")
        seen[ev.parameter] = ev.label
    return circle_sort(events, key=lambda ev: double_angle(ev.parameter))


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
        self.base = (normalize(*b1), normalize(*b2), normalize(*b3))
        d = det3(*self.base)
        s = sign(d)
        rows = self.base
        adj_rows = [_raw_cross(rows[(i + 1) % 3], rows[(i + 2) % 3]) for i in range(3)]
        # T p expresses p in base coordinates: T = adj(B) arranged so T b_i = e_i
        self._t = tuple(tuple(s * adj_rows[i][k] for k in range(3)) for i in range(3))

    def _to_frame(self, p: Triple) -> tuple[int, int, int]:
        return tuple(sum(self._t[i][k] * p[k] for k in range(3)) for i in range(3))

    def _from_frame(self, y) -> Triple:
        return normalize(*(sum(self.base[c][k] * y[c] for c in range(3))
                           for k in range(3)))

    def point(self, p: Triple) -> Triple:
        """Image of a point; base points blow up (error), base lines contract."""
        y = self._to_frame(p)
        zeros = sum(1 for c in y if c == 0)
        if zeros >= 2:
            raise DegeneratePositionError("base point has no well-defined image")
        img = (y[1] * y[2], y[0] * y[2], y[0] * y[1])
        return self._from_frame(img)


def cremona(b1: Triple, b2: Triple, b3: Triple) -> CremonaMap:
    return CremonaMap(b1, b2, b3)
