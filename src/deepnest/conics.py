"""Exact conics, conic pencils, and quadratic (Cremona) transformations.

A conic is a canonical integer 6-tuple (a, b, c, d, e, f) representing
    a x^2 + b xy + c y^2 + d xz + e yz + f z^2 = 0,
coprime with first nonzero entry positive.  Pencil parameters live on the
parameter circle RP^1 and are compared exactly through the same double-angle
device used for line directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, isqrt
from typing import Sequence

from .geometry import (
    DegeneratePositionError,
    Triple,
    _raw_cross,
    circle_sort,
    cross,
    det3,
    double_angle,
    incident,
    line_through,
    normalize,
    sign,
)

Conic = tuple[int, int, int, int, int, int]


class IrrationalFactorizationError(ValueError):
    """A degenerate conic whose two lines are conjugate over a quadratic field."""


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


def conic_through_5(pts: Sequence[Triple]) -> Conic:
    """The unique conic through five points; degenerate input positions
    (fewer than five independent conditions) raise.

    Exact shared-minor cofactor expansion: the coefficients are the signed
    5x5 minors of the 5x6 system, built bottom-up so that each smaller minor
    is computed once and shared by every cofactor that uses it.
    """
    if len(pts) != 5:
        raise ValueError("need exactly 5 points")
    rows = [(x * x, x * y, y * y, x * z, y * z, z * z) for x, y, z in pts]
    # minors[cols]: determinant of the last len(cols) rows on the sorted
    # columns cols, expanded along its top row over the level below
    minors = {(c,): rows[4][c] for c in range(6)}
    for k in range(2, 6):
        top = rows[5 - k]
        minors = {cols: sum((-1) ** i * top[c] * minors[cols[:i] + cols[i + 1:]]
                            for i, c in enumerate(cols))
                  for cols in combinations(range(6), k)}
    coeffs = [(-1) ** k * minors[tuple(c for c in range(6) if c != k)]
              for k in range(6)]
    if all(c == 0 for c in coeffs):
        raise DegeneratePositionError("five points do not determine a unique conic")
    return _canon6(coeffs)


def other_point_on_line(l: Triple, avoid: Triple) -> Triple:
    for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        v = _raw_cross(l, e)
        if all(c == 0 for c in v):
            continue
        cand = normalize(*v)
        if cand != avoid:
            return cand
    raise ValueError("could not find a second point on the line")


def conic_line_second_point(q: Conic, l: Triple, p: Triple) -> Triple:
    """Second intersection of the conic with a line through p on the conic."""
    if conic_eval(q, p) != 0:
        raise ValueError("base point is not on the conic")
    if not incident(l, p):
        raise ValueError("line does not pass through the point")
    r = other_point_on_line(l, p)
    m = conic_matrix2(q)
    s = sum(p[i] * m[i][k] * r[k] for i in range(3) for k in range(3))
    q2r = 2 * conic_eval(q, r)
    if q2r == 0:
        return r
    v = tuple(q2r * p[i] - 2 * s * r[i] for i in range(3))
    if all(c == 0 for c in v):
        # the line is tangent at p
        return p
    return normalize(*v)


def factor_line_pair(q: Conic) -> tuple[Triple, Triple]:
    """Split a rank-<=2 conic into its two lines (equal for a double line).

    Raises IrrationalFactorizationError when the two lines are irrational.
    """
    if conic_det2(q) != 0:
        raise ValueError("conic is nondegenerate")
    m = conic_matrix2(q)
    # adjugate rows of a rank-2 symmetric matrix are all proportional to the
    # singular point (vertex) of the line pair
    adj = [_raw_cross(m[(i + 1) % 3], m[(i + 2) % 3]) for i in range(3)]
    vertex = next((row for row in adj if any(row)), None)
    if vertex is None:
        # rank 1: double line; recover the line from any nonzero row of 2M
        row = next(r for r in m if any(r))
        ln = normalize(*row)
        return ln, ln
    v = normalize(*vertex)
    # restrict the form to a line avoiding the vertex and split the binary form
    a_pt, b_pt = _two_points_off(v)
    qa, qb = conic_eval(q, a_pt), conic_eval(q, b_pt)
    mm = conic_matrix2(q)
    qab = sum(a_pt[i] * mm[i][k] * b_pt[k] for i in range(3) for k in range(3))
    # form on span: qa s^2 + qab s t + qb t^2 over points s*a + t*b
    disc = qab * qab - 4 * qa * qb
    if disc < 0:
        raise IrrationalFactorizationError("complex-conjugate line pair")
    r = isqrt(disc)
    if r * r != disc:
        raise IrrationalFactorizationError("lines live in a quadratic extension")
    roots = []
    if qa != 0:
        roots = [(-qab + r, 2 * qa), (-qab - r, 2 * qa)]
    else:
        # s * (qab t ... ) handle linear case: form = t (qab s + qb t)
        roots = [(1, 0), (-qb, qab)] if qab != 0 else [(1, 0), (1, 0)]
    lines = []
    for (s, t) in roots:
        pt = tuple(s * a_pt[i] + t * b_pt[i] for i in range(3))
        lines.append(line_through(v, normalize(*pt)))
    return lines[0], lines[1]


def _two_points_off(v: Triple) -> tuple[Triple, Triple]:
    # two basis points whose span misses v: the span of {e_i, e_j} is the
    # coordinate line x_k = 0, which avoids v exactly when v_k != 0
    k = next(i for i in range(3) if v[i] != 0)
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    return tuple(basis[i] for i in range(3) if i != k)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# pencils of conics through four points

@dataclass(frozen=True)
class PencilEvent:
    kind: str              # "singular" | "through-point"
    label: str
    parameter: tuple[int, int]   # canonical (lam : mu) on the parameter circle
    member: Conic


def _pair_conic(l1: Triple, l2: Triple) -> Conic:
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    return _canon6((
        a1 * a2,
        a1 * b2 + b1 * a2,
        b1 * b2,
        a1 * c2 + c1 * a2,
        b1 * c2 + c1 * b2,
        c1 * c2,
    ))


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
    ga = _pair_conic(l12, l34)
    gb = _pair_conic(l13, l24)

    def param_through(p: Triple) -> tuple[int, int]:
        va, vb = conic_eval(ga, p), conic_eval(gb, p)
        if va == 0 and vb == 0:
            raise DegeneratePositionError("point lies on every pencil member")
        return _canon_param(-vb, va)

    events: list[PencilEvent] = []
    events.append(PencilEvent("singular", "12|34", _canon_param(1, 0), ga))
    events.append(PencilEvent("singular", "13|24", _canon_param(0, 1), gb))
    vtx = cross(l14, l23)
    lam, mu = param_through(vtx)
    events.append(PencilEvent("singular", "14|23", (lam, mu),
                              pencil_member(ga, gb, lam, mu)))
    for label, p in extras:
        lam, mu = param_through(p)
        events.append(PencilEvent("through-point", label, (lam, mu),
                                  pencil_member(ga, gb, lam, mu)))
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
        # columns of B send the standard frame to the base frame
        self._b = tuple(zip(*self.base))  # row-major: b[r][c] = base[c][r]
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

    def line(self, l: Triple):
        """Image of a line: ("line", triple) or ("conic", 6-tuple); a line
        through two base points contracts to ("point", triple)."""
        l_std = self._line_to_frame(l)
        zeros = [i for i in range(3) if l_std[i] == 0]
        if len(zeros) == 2:
            # line through two base points: contracted to the third
            keep = next(i for i in range(3) if l_std[i] != 0)
            return ("point", self.base[keep])
        kind, data = self._curve_image(_line_poly(l_std))
        return self._image_back(kind, data)

    def conic(self, q: Conic):
        """Image of a conic; supported when it passes through at least two
        base points (image degree <= 2)."""
        kind, data = self._curve_image(_conic_poly(self._conic_to_frame(q)))
        return self._image_back(kind, data)

    # -- internals ---------------------------------------------------------

    def _line_to_frame(self, l: Triple) -> Triple:
        # C_std(y) = C(B y): line transforms by B^T
        return tuple(sum(self.base[c][k] * l[k] for k in range(3)) for c in range(3))

    def _conic_to_frame(self, q: Conic) -> Conic:
        m = conic_matrix2(q)
        b = self.base  # rows are base vectors => (B^T M B)_{cd} = b_c . M . b_d
        mm = [[sum(b[c][i] * m[i][k] * b[d][k] for i in range(3) for k in range(3))
               for d in range(3)] for c in range(3)]
        return (mm[0][0], 2 * mm[0][1], mm[1][1], 2 * mm[0][2], 2 * mm[1][2], mm[2][2])

    def _curve_image(self, poly: dict):
        subst = {}
        for (i, j, k), c in poly.items():
            key = (j + k, i + k, i + j)
            subst[key] = subst.get(key, 0) + c
        subst = {e: c for e, c in subst.items() if c != 0}
        for axis in range(3):
            while all(e[axis] > 0 for e in subst):
                subst = {(e[0] - (axis == 0), e[1] - (axis == 1), e[2] - (axis == 2)): c
                         for e, c in subst.items()}
        deg = max(sum(e) for e in subst)
        if deg == 0:
            raise DegeneratePositionError("curve is supported on the base lines")
        if deg == 1:
            return "line", _poly_line(subst)
        if deg == 2:
            return "conic", _poly_conic(subst)
        raise ValueError(f"image has degree {deg}; only degree <= 2 is supported")

    def _image_back(self, kind: str, data):
        if kind == "line":
            l_std = data
            l = tuple(sum(self._t[c][k] * l_std[c] for c in range(3)) for k in range(3))
            return ("line", normalize(*l))
        m2 = conic_matrix2(data)
        t = self._t
        mm = [[sum(t[a][i] * m2[a][b] * t[b][k] for a in range(3) for b in range(3))
               for k in range(3)] for i in range(3)]
        q = _canon6((mm[0][0], 2 * mm[0][1], mm[1][1],
                     2 * mm[0][2], 2 * mm[1][2], mm[2][2]))
        return ("conic", q)


def _line_poly(l) -> dict:
    return {e: c for e, c in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), l) if c != 0}


def _conic_poly(q) -> dict:
    exps = ((2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2))
    return {e: c for e, c in zip(exps, q) if c != 0}


def _poly_line(poly: dict) -> Triple:
    v = [poly.get((1, 0, 0), 0), poly.get((0, 1, 0), 0), poly.get((0, 0, 1), 0)]
    return normalize(*v)


def _poly_conic(poly: dict) -> Conic:
    exps = ((2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2))
    return _canon6([poly.get(e, 0) for e in exps])


def cremona(b1: Triple, b2: Triple, b3: Triple) -> CremonaMap:
    return CremonaMap(b1, b2, b3)
