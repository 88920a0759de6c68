"""Conics, degenerate members, pencils, and the quadratic transformation."""

from __future__ import annotations

import collections
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from deepnest.geometry import (
    DegeneratePositionError,
    _raw_cross,
    det3,
    normalize,
)
from deepnest.conics import (
    conic_matrix2,
    conic_through_5,
    cremona,
    polar_line,
)
from deepnest.configurations import (
    classify_configuration,
    sample_configuration,
    sigma_shift,
)
from chart import (
    _pair_conic,
    conic_eval,
    dot,
    line_through,
    pencil_event_records,
    pencil_member,
    point,
    reference_pencil_events,
)


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
    # the sampler's perturbed configurations: coordinates over 2000, and
    # every five of the six points lie on a unique conic
    for kind in ("case1", "case2", "case3"):
        for _ in range(10):
            cfg = sample_configuration(kind, rng)
            for pts in combinations(cfg.values(), 5):
                assert conic_through_5(pts) == reference_conic_through_5(pts)


def test_conic_through_5_degenerate_input():
    pts = [point(0, 0), point(1, 0), point(2, 0), point(3, 0), point(0, 1)]
    with pytest.raises(DegeneratePositionError):
        conic_through_5(pts)  # four collinear points leave the conic non-unique
    pts = [point(0, 0), point(1, 5), point(2, -3), point(0, 0), point(7, 1)]
    with pytest.raises(DegeneratePositionError):
        conic_through_5(pts)  # a repeated point gives only four conditions
    # every position of a repeated pair
    general = [point(0, 0), point(1, 5), point(2, -3), point(-4, 1), point(7, 1)]
    for i, j in combinations(range(5), 2):
        pts = list(general)
        pts[j] = pts[i]
        with pytest.raises(DegeneratePositionError):
            conic_through_5(pts)
    # every position of the point off four collinear ones, the line y = 2x + 1
    # taken with its point at infinity
    on_line = [point(0, 1), point(1, 3), point(-1, -1), normalize(1, 2, 0)]
    for k in range(5):
        pts = list(on_line)
        pts.insert(k, point(5, -2))
        with pytest.raises(DegeneratePositionError):
            conic_through_5(pts)


@pytest.mark.parametrize("pts", [
    [point(0, 0), point(1, 0), point(5, 0), point(0, 1), point(3, 7)],
    [point(1, 1), point(2, 3), normalize(1, 2, 0), point(-4, 6),
     point(Fraction(1, 3), -2)],
    [point(-7, 2), point(10**6, 3), point(2 * 10**6 + 7, 4), normalize(1, -1, 0),
     point(5, 5)],
])
def test_conic_through_5_three_collinear_is_line_pair(pts):
    p1, p2, p3, p4, p5 = pts
    assert dot(line_through(p1, p2), p3) == 0
    assert conic_through_5(pts) == _pair_conic(line_through(p1, p2),
                                               line_through(p4, p5))


def other_point_on_line(l, avoid):
    for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        v = _raw_cross(l, e)
        if all(c == 0 for c in v):
            continue
        cand = normalize(*v)
        if cand != avoid:
            return cand
    raise ValueError("could not find a second point on the line")


def conic_line_second_point(q, l, p):
    """Second intersection of the conic with a line through p on the conic:
    p itself exactly when the line is tangent at p."""
    assert conic_eval(q, p) == 0 and dot(l, p) == 0
    r = other_point_on_line(l, p)
    m = conic_matrix2(q)
    s = sum(p[i] * m[i][k] * r[k] for i in range(3) for k in range(3))
    q2r = 2 * conic_eval(q, r)
    if q2r == 0:
        return r
    v = tuple(q2r * p[i] - 2 * s * r[i] for i in range(3))
    if all(c == 0 for c in v):
        return p
    return normalize(*v)


def test_polar_line_of_point_on_conic_is_tangent():
    rng = random.Random(31337)
    for _ in range(80):
        pts, q = five_points(rng)
        p = pts[2]
        t = polar_line(q, p)
        assert dot(t, p) == 0
        # tangency: the second intersection along t collapses back to p
        assert conic_line_second_point(q, t, p) == p


def quad_points(rng):
    """Four points, no three collinear."""
    while True:
        pts = [rand_point(rng, span=25) for _ in range(4)]
        if len(set(pts)) < 4:
            continue
        if any(det3(*tri) == 0 for tri in combinations(pts, 3)):
            continue
        return pts


def test_pencil_has_three_singular_events_on_circle():
    rng = random.Random(2718)
    for _ in range(60):
        base = quad_points(rng)
        events = pencil_event_records(base)
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
            events = pencil_event_records(base, extras)
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
            events = pencil_event_records(base, [("p", p)])
        except DegeneratePositionError:
            continue
        ga = _pair_conic(line_through(base[0], base[1]),
                         line_through(base[2], base[3]))
        gb = _pair_conic(line_through(base[0], base[2]),
                         line_through(base[1], base[3]))
        for ev in events:
            # built on read from the generators and the event's parameter
            assert ev.member == pencil_member(ga, gb, *ev.parameter)
            assert all(conic_eval(ev.member, b) == 0 for b in base)
        ev = next(e for e in events if e.label == "p")
        assert ev.kind == "through-point"
        assert conic_eval(ev.member, p) == 0


def outcome(fn, base, extras):
    """The events `fn` returns, or the type and text of what it raises."""
    try:
        return fn(base, extras)
    except ValueError as exc:
        return type(exc), str(exc)


def test_pencil_events_match_the_reference_on_small_integers():
    # coordinates this small make about a third of the inputs degenerate,
    # often in more than one way at once, so the order of the checks shows
    rng = random.Random(1818)
    seen = collections.Counter()
    for _ in range(20_000):
        span = rng.choice((3, 4))
        pts = []
        while len(pts) < 4 + 3:
            p = tuple(rng.randint(-span, span) for _ in range(3))
            if any(p):
                pts.append(p)
        base = pts[:4]
        extras = [(f"x{i}", p) for i, p in enumerate(pts[4:4 + rng.randint(0, 3)])]
        want = outcome(reference_pencil_events, base, extras)
        assert outcome(pencil_event_records, base, extras) == want
        seen[want[1].split()[0] if isinstance(want, tuple) else "events"] += 1
    assert sum(seen.values()) - seen["events"] > 5_000
    assert min(seen.values()) > 500, seen


def test_pencil_events_match_the_reference_on_lemma3_samples():
    # the pencil that `reducible_cubic_sequence` builds, for every case and
    # relabelling of 200 sampler seeds
    for case in (1, 2, 3):
        for shift in range(5):
            for seed in range(200):
                cfg = sigma_shift(sample_configuration(
                    f"case{case}", random.Random(seed)), shift)
                cl = classify_configuration(cfg)
                c = sigma_shift(cfg, cl.relabel_shift)
                qt = cremona(c[1], c[5], c[4])
                base = [c[1], *(qt.point(c[x]) for x in (2, 3, 6))]
                extras = [("14", c[5]), ("15", c[4])]
                assert (pencil_event_records(base, extras)
                        == reference_pencil_events(base, extras))


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
    b = (point(0, 0), point(1, 0), point(0, 1))
    qt = cremona(*b)
    # a non-base point on the line through two base points maps to the third
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        p = normalize(*(3 * u + 5 * v for u, v in zip(b[i], b[j])))
        assert qt.point(p) == b[k]


def test_cremona_rejects_collinear_base():
    with pytest.raises((DegeneratePositionError, ValueError)):
        cremona(point(0, 0), point(1, 1), point(2, 2))
