"""Conics, degenerate members, pencils, and the quadratic transformation."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
import hypothesis as hyp
import hypothesis.strategies as hys

from deepnest.geometry import (
    DegeneratePositionError,
    incident,
    line_through,
    normalize,
    point,
)
from deepnest.conics import (
    IrrationalFactorizationError,
    _pair_conic,
    conic_eval,
    conic_line_second_point,
    conic_pencil_events,
    conic_through_5,
    cremona,
    factor_line_pair,
    polar_line,
)

coord = hys.integers(min_value=-20, max_value=20)


def rand_point(rng, span=40):
    return point(Fraction(rng.randrange(-span, span + 1), rng.randrange(1, 5)),
                 Fraction(rng.randrange(-span, span + 1), rng.randrange(1, 5)))


def five_points(rng):
    while True:
        pts = []
        while len(pts) < 5:
            p = rand_point(rng)
            if p not in pts:
                pts.append(p)
        try:
            return pts, conic_through_5(pts)
        except DegeneratePositionError:
            continue


def test_conic_through_5_vanishes_on_inputs():
    rng = random.Random(314)
    for _ in range(200):
        pts, q = five_points(rng)
        for p in pts:
            assert conic_eval(q, p) == 0
        # and not identically zero on a sixth generic point
        assert any(conic_eval(q, rand_point(rng)) != 0 for _ in range(5))


def reference_conic_through_5(pts):
    """Null vector of the 5x6 system by Fraction Gauss-Jordan elimination,
    scaled to coprime integers with first nonzero entry positive; None when
    the rank is below 5."""
    m = [[Fraction(v) for v in (x * x, x * y, y * y, x * z, y * z, z * z)]
         for x, y, z in pts]
    pivots = []
    for col in range(6):
        r = len(pivots)
        piv = next((i for i in range(r, 5) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [v / m[r][col] for v in m[r]]
        for i in range(5):
            if i != r and m[i][col] != 0:
                m[i] = [a - m[i][col] * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    if len(pivots) < 5:
        return None
    free = next(c for c in range(6) if c not in pivots)
    vec = [Fraction(0)] * 6
    vec[free] = Fraction(1)
    for r, col in enumerate(pivots):
        vec[col] = -m[r][free]
    den = math.lcm(*(v.denominator for v in vec))
    ints = [int(v * den) for v in vec]
    g = math.gcd(*ints)
    ints = [v // g for v in ints]
    if next(v for v in ints if v != 0) < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def oracle_point(rng):
    kind = rng.randrange(6)
    if kind == 0:   # at infinity
        while True:
            x, y = rng.randint(-9, 9), rng.randint(-9, 9)
            if (x, y) != (0, 0):
                return normalize(x, y, 0)
    span = 10**6 if kind == 1 else 30
    return point(Fraction(rng.randint(-span, span), rng.randint(1, 7)),
                 Fraction(rng.randint(-span, span), rng.randint(1, 7)))


def test_conic_through_5_matches_elimination_oracle():
    rng = random.Random(1968)
    raised = 0
    for n in range(300):
        pts = [oracle_point(rng) for _ in range(5)]
        if n % 10 == 0:     # a repeated point
            pts[4] = pts[rng.randrange(4)]
        elif n % 10 == 1:   # a third point on the line through two others
            a, b = pts[0], pts[1]
            pts[2] = normalize(*(3 * u - 2 * v for u, v in zip(a, b)))
        rng.shuffle(pts)
        want = reference_conic_through_5(pts)
        if want is None:
            raised += 1
            with pytest.raises(DegeneratePositionError):
                conic_through_5(pts)
        else:
            assert conic_through_5(pts) == want, pts
    assert 30 <= raised < 100   # both outcomes exercised


def test_conic_through_5_degenerate_input():
    pts = [point(0, 0), point(1, 0), point(2, 0), point(3, 0), point(0, 1)]
    with pytest.raises(DegeneratePositionError):
        conic_through_5(pts)  # four collinear points leave the conic non-unique
    pts = [point(0, 0), point(1, 5), point(2, -3), point(0, 0), point(7, 1)]
    with pytest.raises(DegeneratePositionError):
        conic_through_5(pts)  # a repeated point gives only four conditions


@pytest.mark.parametrize("pts", [
    [point(0, 0), point(1, 0), point(5, 0), point(0, 1), point(3, 7)],
    [point(1, 1), point(2, 3), normalize(1, 2, 0), point(-4, 6),
     point(Fraction(1, 3), -2)],
    [point(-7, 2), point(10**6, 3), point(2 * 10**6 + 7, 4), normalize(1, -1, 0),
     point(5, 5)],
])
def test_conic_through_5_three_collinear_is_line_pair(pts):
    p1, p2, p3, p4, p5 = pts
    assert incident(line_through(p1, p2), p3)
    assert conic_through_5(pts) == _pair_conic(line_through(p1, p2),
                                               line_through(p4, p5))


def test_factor_line_pair_roundtrip():
    rng = random.Random(1009)
    done = 0
    while done < 150:
        a, b, c, d = (rand_point(rng) for _ in range(4))
        if a == b or c == d:
            continue
        l1, l2 = line_through(a, b), line_through(c, d)
        if l1 == l2:
            continue
        q = tuple_of_product(l1, l2)
        g1, g2 = factor_line_pair(q)
        assert {g1, g2} == {normalize(*l1), normalize(*l2)}
        done += 1


def tuple_of_product(l1, l2):
    """Conic with equation (l1 . x)(l2 . x) = 0."""
    (a1, b1, c1), (a2, b2, c2) = l1, l2
    return (a1 * a2, a1 * b2 + a2 * b1, b1 * b2,
            a1 * c2 + a2 * c1, b1 * c2 + b2 * c1, c1 * c2)


def test_factor_line_pair_rejects_irrational_and_smooth():
    # x^2 - 2 y^2 splits only over sqrt(2)
    with pytest.raises(IrrationalFactorizationError):
        factor_line_pair((1, 0, -2, 0, 0, 0))
    # a smooth conic is not a line pair at all
    with pytest.raises(ValueError):
        factor_line_pair((1, 0, 1, 0, 0, -1))


def test_factor_double_line():
    l = (2, -3, 5)
    g1, g2 = factor_line_pair(tuple_of_product(l, l))
    assert g1 == g2 == normalize(*l)


def test_conic_line_second_point():
    rng = random.Random(77)
    for _ in range(150):
        pts, q = five_points(rng)
        p = pts[0]
        other = rand_point(rng)
        if other == p:
            continue
        l = line_through(p, other)
        r = conic_line_second_point(q, l, p)
        assert incident(l, r)
        assert conic_eval(q, r) == 0


def test_polar_line_of_point_on_conic_is_tangent():
    rng = random.Random(31337)
    for _ in range(80):
        pts, q = five_points(rng)
        p = pts[2]
        t = polar_line(q, p)
        assert incident(t, p)
        # tangency: the second intersection along t collapses back to p
        assert conic_line_second_point(q, t, p) == p


def quad_points(rng):
    """Four points, no three collinear."""
    from deepnest.geometry import orient
    while True:
        pts = [rand_point(rng, span=25) for _ in range(4)]
        if len(set(pts)) < 4:
            continue
        from itertools import combinations
        if any(orient(*tri) == 0 for tri in combinations(pts, 3)):
            continue
        return pts


def test_pencil_has_three_singular_events_on_circle():
    rng = random.Random(2718)
    for _ in range(60):
        base = quad_points(rng)
        events = conic_pencil_events(base)
        singular = [e for e in events if e.kind == "singular"]
        assert len(singular) == 3
        assert sorted(e.label for e in singular) == ["12|34", "13|24", "14|23"]
        # each singular member vanishes on all four base points
        for e in singular:
            assert all(conic_eval(e.member, p) == 0 for p in base)
        # parameters are pairwise distinct points of the parameter circle
        params = [e.parameter for e in events]
        assert len(set(params)) == len(params)


def test_pencil_event_order_matches_float_angles():
    rng = random.Random(163)
    for _ in range(60):
        base = quad_points(rng)
        extras = []
        while len(extras) < 2:
            p = rand_point(rng, span=25)
            if p not in base and all(p != e for _, e in extras):
                extras.append((f"x{len(extras)}", p))
        try:
            events = conic_pencil_events(base, extras)
        except DegeneratePositionError:
            continue
        angles = [math.atan2(e.parameter[1], e.parameter[0]) % (2 * math.pi)
                  for e in events]
        k = angles.index(min(angles))
        rotated = angles[k:] + angles[:k]
        assert rotated == sorted(rotated)


def test_pencil_member_through_extra_point():
    rng = random.Random(404)
    for _ in range(40):
        base = quad_points(rng)
        p = rand_point(rng)
        if p in base:
            continue
        try:
            events = conic_pencil_events(base, [("p", p)])
        except DegeneratePositionError:
            continue
        ev = next(e for e in events if e.label == "p")
        assert ev.kind == "through-point"
        assert conic_eval(ev.member, p) == 0
        assert all(conic_eval(ev.member, b) == 0 for b in base)


def test_cremona_is_an_involution():
    rng = random.Random(55)
    done = 0
    while done < 300:
        b = quad_points(rng)[:3]
        qt = cremona(*b)
        p = rand_point(rng)
        try:
            image = qt.point(p)
            back = qt.point(image)
        except DegeneratePositionError:
            continue
        assert back == normalize(*p)
        done += 1


def test_cremona_contracts_lines_between_base_points():
    qt = cremona(point(0, 0), point(1, 0), point(0, 1))
    l = line_through(point(0, 0), point(1, 0))
    kind, val = qt.line(l)
    assert kind == "point"
    assert val == normalize(*point(0, 1))  # the opposite base point


def test_cremona_line_image_is_conic_through_base():
    rng = random.Random(606)
    done = 0
    while done < 100:
        b = quad_points(rng)[:3]
        qt = cremona(*b)
        a, c = rand_point(rng), rand_point(rng)
        if a == c:
            continue
        l = line_through(a, c)
        if any(incident(l, bp) for bp in qt.base):
            continue
        kind, q = qt.line(l)
        assert kind == "conic"
        # the image conic passes through all three base points
        assert all(conic_eval(q, bp) == 0 for bp in qt.base)
        # and through images of points on l
        try:
            img = qt.point(a)
        except DegeneratePositionError:
            continue
        assert conic_eval(q, img) == 0
        done += 1


def test_cremona_conic_image_degrees():
    """A conic through two base points maps to a conic, through three to a
    line; a generic conic has a quartic image and is rejected."""
    rng = random.Random(808)
    done_2 = done_3 = done_g = 0
    while min(done_2, done_3, done_g) < 40:
        pts = quad_points(rng) + [rand_point(rng, span=12)]
        if len(set(pts)) < 5:
            continue
        try:
            q = conic_through_5(pts)
        except DegeneratePositionError:
            continue
        # base through two of the conic's points
        others = [rand_point(rng, span=12)]
        if others[0] in pts:
            continue
        try:
            qt2 = cremona(pts[0], pts[1], others[0])
        except (DegeneratePositionError, ValueError):
            continue
        try:
            kind, img = qt2.conic(q)
        except ValueError:
            continue
        assert kind == "conic"
        probe = pts[3]
        try:
            assert conic_eval(img, qt2.point(probe)) == 0
            done_2 += 1
        except DegeneratePositionError:
            pass

        try:
            qt3 = cremona(pts[0], pts[1], pts[2])
        except (DegeneratePositionError, ValueError):
            continue
        kind, img = qt3.conic(q)
        assert kind == "line"
        try:
            assert incident(img, qt3.point(pts[4]))
            done_3 += 1
        except DegeneratePositionError:
            pass

        try:
            qtg = cremona(others[0], rand_point(rng, span=9),
                          rand_point(rng, span=9))
        except (DegeneratePositionError, ValueError):
            continue
        if any(conic_eval(q, bp) == 0 for bp in qtg.base):
            continue
        with pytest.raises(ValueError):
            qtg.conic(q)
        done_g += 1


def test_cremona_rejects_collinear_base():
    with pytest.raises((DegeneratePositionError, ValueError)):
        cremona(point(0, 0), point(1, 1), point(2, 2))
