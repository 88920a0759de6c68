"""Exact projective kernel, cross-checked against floating point."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
import hypothesis as hyp
import hypothesis.strategies as hys

from deepnest.geometry import (
    TABLE_KEYS,
    DegeneratePositionError,
    chart_orient,
    chart_rep,
    circle_sort,
    det3,
    normalize,
    orientation_signs,
    orientation_table,
    sign,
    slot,
    turn_order,
)
from chart import (
    chart_direction,
    dot,
    double_angle,
    hull_cycle_looped,
    inside_ccw_arc,
    line_pencil_sweep,
    line_through,
    orientation_signs_looped,
    orientation_table_looped,
    point,
)

coord = hys.integers(min_value=-40, max_value=40)


def rand_point(rng, span=50):
    return point(Fraction(rng.randrange(-span, span + 1), rng.randrange(1, 7)),
                 Fraction(rng.randrange(-span, span + 1), rng.randrange(1, 7)))


def test_normalize_canonical():
    assert normalize(2, 4, 6) == (1, 2, 3)
    assert normalize(-2, -4, -6) == (1, 2, 3)
    assert normalize(0, -5, 10) == (0, 1, -2)
    assert normalize(0, 0, -7) == (0, 0, 1)
    with pytest.raises(ValueError):
        normalize(0, 0, 0)


@hyp.given(coord, coord, coord, coord, coord, coord)
def test_line_through_incident(ax, ay, bx, by, cx, cy):
    a, b = point(ax, ay), point(bx, by)
    hyp.assume(a != b)
    l = line_through(a, b)
    assert dot(l, a) == 0 and dot(l, b) == 0
    c = point(cx, cy)
    assert (dot(l, c) == 0) == (det3(a, b, c) == 0)


def test_chart_rep_positive_side():
    p = normalize(3, -4, -2)
    r = chart_rep(p)
    assert r[2] > 0
    with pytest.raises(DegeneratePositionError):
        chart_rep(normalize(1, 1, 0))


def test_circle_sort_matches_float_angles():
    rng = random.Random(20240801)
    for _ in range(300):
        pts = {}
        base = rand_point(rng)
        while len(pts) < 6:
            q = rand_point(rng)
            if q == base:
                continue
            d = chart_direction(base, q)
            pts[f"p{len(pts)}"] = (q, double_angle(d))
        try:
            ordered = circle_sort(list(pts.items()), key=lambda kv: kv[1][1])
        except DegeneratePositionError:
            continue  # two targets at equal double angle
        angles = {k: math.atan2(v[1][1], v[1][0]) % (2 * math.pi)
                  for k, v in pts.items()}
        expect = sorted(pts, key=lambda k: angles[k])
        assert [k for k, _ in ordered] == expect


@hyp.given(coord, coord, coord, coord)
def test_double_angle_identifies_antipodes(x, y, _z, _w):
    hyp.assume((x, y) != (0, 0))
    d = chart_direction(point(0, 0), point(Fraction(x), Fraction(y)))
    assert double_angle(d) == double_angle((-d[0], -d[1]))


def test_inside_ccw_arc_quarter_turns():
    e, n, w = (1, 0), (0, 1), (-1, 0)
    assert inside_ccw_arc(e, n, (1, 1))
    assert not inside_ccw_arc(n, e, (1, 1))
    assert inside_ccw_arc(e, w, n)       # half-turn arc
    assert not inside_ccw_arc(e, n, n)   # endpoint is not inside


def test_convex_position_hull_and_interior():
    square = {1: point(0, 0), 2: point(4, 0), 3: point(4, 4), 4: point(0, 4)}
    for pts, interior in ((square, ()), ({**square, 5: point(1, 2)}, (5,))):
        cycle, inner = hull_cycle_looped(orientation_table_looped(pts),
                                         list(pts))
        # counterclockwise cycle, starting at the smallest label
        assert cycle == (1, 2, 3, 4)
        assert inner == interior


def test_convex_position_vs_float_hull():
    rng = random.Random(5150)
    hits = 0
    for _ in range(200):
        pts = {i: rand_point(rng, span=30) for i in range(1, 7)}
        try:
            cycle, interior = hull_cycle_looped(orientation_table(pts),
                                                list(pts))
        except DegeneratePositionError:
            continue
        hits += 1
        assert cycle[0] == min(cycle)
        assert sorted(cycle + interior) == sorted(pts)
        # every point strictly left of every hull edge in the chart
        for i in range(len(cycle)):
            a, b = pts[cycle[i]], pts[cycle[(i + 1) % len(cycle)]]
            for k, p in pts.items():
                if k in (cycle[i], cycle[(i + 1) % len(cycle)]):
                    continue
                assert chart_orient(a, b, p) > 0
    assert hits > 100


def test_orientation_table_is_the_sign_of_det3():
    # small coordinates, so that many triples are collinear; z of either
    # sign; label sets of six points, through the kernel (in label order
    # and not), and of five and four, through the loop of `chart.py`
    rng = random.Random(1616)
    zeros = flips = 0
    # one entry per key, and every triple of distinct labels 1..6 reads
    # one of them
    assert [slot(*t) for t in TABLE_KEYS] == list(range(40))
    assert {slot(*t) for t in permutations(range(1, 7), 3)} == set(range(40))
    for labels in ((1, 2, 3, 4, 5, 6), (4, 1, 6, 3, 5, 2), (2, 6, 1, 4, 5),
                   (5, 1, 3, 2)):
        for _ in range(150):
            pts = {k: (rng.randint(-3, 3), rng.randint(-3, 3),
                       rng.choice((-3, -2, -1, 1, 2, 3))) for k in labels}
            if len(pts) == 6:
                signs = orientation_table(pts)
                assert orientation_signs(pts) == orientation_signs_looped(
                    dict(sorted(pts.items())))
            else:
                signs = orientation_table_looped(pts)
            assert len(signs) == 40
            assert orientation_signs_looped(pts) == tuple(
                signs[slot(*t)] for t in combinations(pts, 3))
            for a, b, c in permutations(range(1, 7), 3):
                s = signs[slot(a, b, c)]
                if not {a, b, c} <= set(pts):
                    assert s == 0
                    continue
                expected = sign(det3(chart_rep(pts[a]), chart_rep(pts[b]),
                                     chart_rep(pts[c])))
                assert s == expected
                zeros += expected == 0
                flips += expected != sign(det3(pts[a], pts[b], pts[c]))
    assert zeros > 1000 and flips > 1000


def test_a_label_outside_1_to_6_raises():
    # the table never reads 0 for a triple it does not hold, nor for a
    # repeated label
    for t in ((0, 1, 2), (1, 2, 7), (3, 3, 0), (2, 2, 3)):
        with pytest.raises(KeyError):
            slot(*t)
    with pytest.raises(ValueError, match="labelled 1..6"):
        orientation_table({k: (k, k * k, 1) for k in (1, 2, 3, 4, 5, 7)})


def test_orientation_signs_take_six_points():
    for labels in ((1, 2, 3), (1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5, 6)):
        with pytest.raises(ValueError, match="six points"):
            orientation_table({k: (k, k * k, 1) for k in labels})


def test_pencil_sweep_is_cyclic_and_antipode_free():
    rng = random.Random(99)
    for _ in range(100):
        base = rand_point(rng)
        targets = {}
        while len(targets) < 5:
            q = rand_point(rng)
            if q != base:
                targets[len(targets)] = q
        try:
            order, flags = line_pencil_sweep(base, targets)
        except DegeneratePositionError:
            continue
        assert sorted(order) == sorted(targets)
        assert len(flags) == len(order)


def test_sweep_jump_parity_is_odd():
    """A full pencil rotation crosses the distinguished line an odd number
    of sweep steps, whatever the configuration."""
    rng = random.Random(424242)
    checked = 0
    while checked < 250:
        base = rand_point(rng)
        targets = {}
        while len(targets) < rng.choice([3, 4, 5, 6]):
            q = rand_point(rng)
            if q != base:
                targets[len(targets)] = q
        try:
            _, flags = line_pencil_sweep(base, targets)
        except DegeneratePositionError:
            continue
        assert sum(flags) % 2 == 1, (base, targets)
        checked += 1


def test_turn_order_ranks_every_order_from_its_turns():
    # turn j of the pair y < x is (-1)^j times the signs at slots 2j, 2j + 1
    pairs = list(combinations("abcd", 2))
    turns = [(y, x, (-1) ** j, (2 * j, 2 * j + 1))
             for j, (y, x) in enumerate(pairs)]
    for order in permutations("abcd"):
        signs = []
        for j, (y, x) in enumerate(pairs):
            turn = -1 if order.index(x) > order.index(y) else 1
            first = (-1) ** (j // 2)
            signs += [first, turn * (-1) ** j * first]
        assert turn_order(signs, "z", turns) == ["z", *order]
        for i in range(len(signs)):
            assert turn_order(signs[:i] + [0] + signs[i + 1:], "z",
                              turns) is None
