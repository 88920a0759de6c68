"""Lemma 3's position cycles read from the orientation table, against the
conic through the five points, its tangent at point 1 and the secants
from point 1 that the table reading replaces."""

from __future__ import annotations

import random

from deepnest.configurations import (
    BASE_CONFIGURATIONS,
    _position_cycle,
    classify_configuration,
    sigma_shift,
)
from deepnest.conics import conic_through_5, polar_line
from deepnest.geometry import (
    DegeneratePositionError,
    circle_sort,
    normalize,
    orientation_table,
)
from chart import chart_direction, double_angle, hull_cycle_looped
from point_classifier import sweep_order


def conic_position_cycle(cfg, x):
    """Both readings of the cyclic order of the five points other than `x`
    on the conic through them: the secant directions from point 1 sorted
    counterclockwise on the circle of doubled directions, starting after the
    conic's tangent at point 1, which stands for point 1 itself."""
    labels = [i for i in (1, 2, 3, 4, 5, 6) if i != x]
    conic = conic_through_5([cfg[i] for i in labels])
    items = [(lab, double_angle(chart_direction(cfg[1], cfg[lab])))
             for lab in labels if lab != 1]
    tangent = polar_line(conic, cfg[1])
    items.append(("anchor", double_angle((tangent[1], -tangent[0]))))
    order = [lab for lab, _ in circle_sort(items, key=lambda it: it[1])]
    i = order.index("anchor")
    cyc = order[i + 1:] + order[:i]
    return ("1" + "".join(map(str, cyc)),
            "1" + "".join(map(str, reversed(cyc))))


def assert_cycles_agree(cfg):
    signs = orientation_table(cfg)
    for x in (2, 3, 4, 5, 6):
        assert _position_cycle(signs, x) == conic_position_cycle(cfg, x), (cfg, x)


def test_templates_under_every_shift():
    for template in BASE_CONFIGURATIONS.values():
        for k in range(5):
            assert_cycles_agree(sigma_shift(template, k))


def random_valid_configurations(rng, count, span=1000):
    """`count` configurations of random points in [-span, span]^2 that
    classify as a valid case, with labels 2..6 in pencil order at point 1
    from a random start.  Each draw of six points tries only its interior
    points as point 1, which skips most classifications: 60,000 draws
    (seed 5) gave 5,734 valid configurations, none with point 1 on the
    hull of the six."""
    found = []
    while len(found) < count:
        pts = [normalize(rng.randint(-span, span), rng.randint(-span, span), 1)
               for _ in range(6)]
        if len(set(pts)) != 6:
            continue
        try:
            _, interior = hull_cycle_looped(
                orientation_table(dict(enumerate(pts, 1))), range(1, 7))
        except DegeneratePositionError:
            continue
        for c in interior:
            cfg = {1: pts[c - 1],
                   **dict(zip((2, 3, 4, 5, 6), pts[:c - 1] + pts[c:]))}
            order = sweep_order(cfg)
            start = rng.randrange(5)
            order = order[start:] + order[:start]
            cfg = {1: cfg[1], **{2 + i: cfg[lab] for i, lab in enumerate(order)}}
            if classify_configuration(cfg).is_valid:
                found.append(cfg)
    return found[:count]


def test_random_valid_configurations():
    configs = random_valid_configurations(random.Random(20261018), 500)
    assert {classify_configuration(cfg).case for cfg in configs} == {1, 2, 3}
    for cfg in configs:
        assert_cycles_agree(cfg)
