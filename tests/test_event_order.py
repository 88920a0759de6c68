"""Lemma 3's event order from orientation signs, against the integer pencil
that the quadratic map based at points 1, 5, 4 makes of the reducible
cubics (`chart.cremona_pencil` and `chart.integer_pencil_events`), and the
printed report's invariance under orientation-preserving affine maps."""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

import pytest

from deepnest import configurations
from deepnest.cli import main
from deepnest.conics import _EVENT_TURNS, _raw_pair, conic_pencil_events
from deepnest.configurations import (
    BASE_CONFIGURATIONS,
    REFERENCE_SEQUENCES,
    InvalidConfigurationError,
    cyclic_equal,
    reducible_cubic_sequence,
    sample_configuration,
    sigma_shift,
)
from deepnest.geometry import (
    DegeneratePositionError,
    _raw_cross,
    det3,
    normalize,
    orientation_signs,
    orientation_table,
)
from chart import affine_map, cremona_pencil, integer_pencil_events, point

SINGULAR = {"12|34": "12", "13|24": "13", "14|23": "16"}


def cremona_order(cfg, case, shift):
    """The events of the integer pencil, in pencil order, read in the
    direction that puts 12, 13 and 16 in their order in the reference."""
    base, extras = cremona_pencil(sigma_shift(cfg, shift))
    _, _, events = integer_pencil_events(base, extras)
    order = [SINGULAR.get(label, label) for _, label, _, _ in events]
    target = [lab for lab, _ in REFERENCE_SEQUENCES[case]
              if lab in ("12", "13", "16")]
    singular = [lab for lab in order if lab in ("12", "13", "16")]
    if cyclic_equal(singular, target):
        return order
    assert cyclic_equal(singular[::-1], target)
    return order[::-1]


def conic_sign(cfg):
    """C = [123][145][246][356] - [124][135][236][456] of the points as
    given: it vanishes iff the six lie on one conic."""
    def b(*t):
        return det3(*(cfg[k] for k in t))
    return (b(1, 2, 3) * b(1, 4, 5) * b(2, 4, 6) * b(3, 5, 6)
            - b(1, 2, 4) * b(1, 3, 5) * b(2, 3, 6) * b(4, 5, 6))


def grid_points(rng, span=40):
    return [(rng.randint(-span, span), rng.randint(-span, span), 1)
            for _ in range(6)]


def nested_points(rng, span=40):
    """Point 1 and three grid points, then two points inside the triangle
    of those three: case 3's shape, which grid points seldom take."""
    pts = grid_points(rng, span)[:4]
    for _ in range(2):
        w = [rng.randint(1, 9) for _ in range(3)]
        pts.append(tuple(sum(wi * p[j] for wi, p in zip(w, pts[1:4]))
                         for j in range(3)))
    return pts


def pencil_ordered(pts, rng):
    """The six points (z > 0) with 2..6 labelled in the order of their lines
    through point 1, from a random start; None when two coincide or three
    are collinear."""
    cfg = {k: normalize(*p) for k, p in enumerate(pts, start=1)}
    if len(set(cfg.values())) < 6 or 0 in orientation_signs(cfg):
        return None
    (x1, y1, z1), rest = pts[0], pts[1:]
    order = sorted(range(5), key=lambda i: math.atan2(
        rest[i][1] / rest[i][2] - y1 / z1,
        rest[i][0] / rest[i][2] - x1 / z1) % math.pi)
    start = rng.randrange(5)
    order = order[start:] + order[:start]
    return {1: cfg[1], **{2 + j: cfg[2 + i] for j, i in enumerate(order)}}


def corpus_samples(monkeypatch, capsys):
    """The configurations that the lemma3 digest corpus sequences: every
    sample of `lemma3 --case K --seed S --samples 40`, K = 1..3, S = 0..4,
    and the valid templates that its `--config` runs read."""
    seen = []
    sequence = configurations.reducible_cubic_sequence
    monkeypatch.setattr(configurations, "reducible_cubic_sequence",
                        lambda cfg: seen.append(cfg) or sequence(cfg))
    for k in (1, 2, 3):
        for s in range(5):
            assert main(["--json", "lemma3", "--case", str(k), "--seed",
                         str(s), "--samples", "40"]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    assert len(seen) == 600
    return seen + list(BASE_CONFIGURATIONS.values())


def test_event_order_is_the_cremona_pencil_order(monkeypatch, capsys):
    configs = corpus_samples(monkeypatch, capsys)
    for cfg in BASE_CONFIGURATIONS.values():
        configs += [sigma_shift(cfg, k) for k in range(5)]
    # seeded valid configurations: random pencil-ordered draws, then
    # template samples under positive affine maps
    rng = random.Random(22)
    seeded = []
    for draw in [grid_points] * 10_000 + [nested_points] * 5_000:
        cfg = pencil_ordered(draw(rng), rng)
        try:
            if cfg and configurations.classify_configuration(cfg).is_valid:
                seeded.append(cfg)
        except InvalidConfigurationError:
            pass    # two lines through point 1 too close for atan2
    while len(seeded) < 10_000:
        cfg = sample_configuration(f"case{rng.randint(1, 3)}", rng)
        f = affine_map(rng)
        seeded.append({k: f(p) for k, p in sigma_shift(
            cfg, rng.randrange(5)).items()})
    matches = {(case, m): 0 for case in (1, 2, 3) for m in (True, False)}
    for cfg in configs + seeded:
        rep = reducible_cubic_sequence(cfg)
        cl = rep.classification
        assert cl.is_valid
        order = [lab for lab, _ in rep.events]
        assert cyclic_equal(order, cremona_order(cfg, cl.case,
                                                 cl.relabel_shift)), cfg
        # 12 is first for case 1 and last for cases 2 and 3
        assert order.index("12") == (0 if cl.case == 1 else 4)
        # the reference sequence holds iff C < 0
        assert rep.matches_reference == (conic_sign(cfg) < 0), cfg
        matches[cl.case, rep.matches_reference] += 1
    # the draws reach tables where the reference sequence does not hold
    assert matches[1, False] == 0
    assert min(matches[case, m] for case in (2, 3) for m in (True, False)) \
        >= 10, matches


def raw_turn(params, y, x):
    """The cyclic turn (12|34, y, x) of three pencil parameters, as the sign
    of [p12 py][py px][px p12] with p12 = (1 : 0)."""
    (ly, my), (lx, mx) = params[y], params[x]
    return my * (ly * mx - my * lx) * -mx


def test_each_turn_is_the_raw_turn_of_the_cremona_pencil():
    # six grid points of any order type, each label's point scaled by -1
    # at random, so that charted and given representatives differ in sign
    rng = random.Random(1822)
    checked = 0
    while checked < 20_000:
        cfg = {k: normalize(*(rng.choice((-1, 1)) * v for v in (
            rng.randint(-30, 30), rng.randint(-30, 30), rng.randint(1, 3))))
               for k in range(1, 7)}
        if len(set(cfg.values())) < 6 or 0 in orientation_signs(cfg):
            continue
        base, extras = cremona_pencil(cfg)
        try:
            ga, gb, events = integer_pencil_events(base, extras)
        except DegeneratePositionError:
            # only six points on one conic reach an error of the pencil
            with pytest.raises(DegeneratePositionError):
                conic_pencil_events(orientation_table(cfg), cfg)
            continue
        params = {SINGULAR.get(label, label): (lam, mu)
                  for _, label, lam, mu in events}
        # each generator's lead-sign fix reverses every turn
        b1, b2, b3, b4 = base
        flips = (ga != _raw_pair(_raw_cross(b1, b2), _raw_cross(b3, b4))) \
            ^ (gb != _raw_pair(_raw_cross(b1, b3), _raw_cross(b2, b4)))
        signs = orientation_table(cfg)
        for y, x, s, slots in _EVENT_TURNS:
            turn = s * math.prod(signs[i] for i in slots)
            assert (raw_turn(params, y, x) > 0) == ((turn > 0) ^ flips), \
                (cfg, y, x)
        checked += 1


def test_six_points_on_one_conic_raise():
    # integer points of the circle x^2 + y^2 = 25 and of the ellipse
    # x^2 + 4 y^2 = 100, in several label orders
    circle = [(5, 0), (4, 3), (0, 5), (-3, 4), (-4, -3), (3, -4)]
    ellipse = [(10, 0), (8, 3), (6, 4), (0, 5), (-6, -4), (-8, 3)]
    rng = random.Random(6)
    for pts in (circle, ellipse):
        for _ in range(10):
            rng.shuffle(pts)
            cfg = {k: point(*p) for k, p in enumerate(pts, start=1)}
            assert 0 not in orientation_signs(cfg)
            with pytest.raises(DegeneratePositionError,
                               match="lie on one conic"):
                conic_pencil_events(orientation_table(cfg), cfg)
            with pytest.raises(DegeneratePositionError):
                integer_pencil_events(*cremona_pencil(cfg))


def test_a_zero_turn_raises():
    # points 2, 4 and 5 are collinear; the six lie on no conic
    cfg = {1: point(0, 0), 2: point(1, 0), 3: point(0, 5), 4: point(2, 1),
           5: point(3, 2), 6: point(-3, 1)}
    assert conic_sign(cfg) != 0
    with pytest.raises(DegeneratePositionError, match="collinear"):
        conic_pencil_events(orientation_table(cfg), cfg)


def report(monkeypatch, tmp_path, name, points):
    """The `--json lemma3 --config points.json` report of `points`, run
    from its own directory."""
    work = tmp_path / name
    work.mkdir()
    (work / "points.json").write_text(json.dumps(
        [{"label": k, "point": list(p)} for k, p in points.items()]))
    monkeypatch.chdir(work)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--json", "lemma3", "--config", "points.json"]) == 0
    return out.getvalue()


README_POINTS = {1: (2, -1, -10), 2: (3, -3, -10), 3: (1, 0, 1),
                 4: (1, 0, -1), 5: (0, 1, 1), 6: (0, 1, -1)}


def test_report_is_invariant_under_positive_affine_maps(monkeypatch,
                                                         tmp_path):
    # M = ((-2, -2, -2), (2, -1, -2), (0, 0, 1)) has determinant 6
    moved = {k: (-2 * x - 2 * y - 2 * z, 2 * x - y - 2 * z, z)
             for k, (x, y, z) in README_POINTS.items()}
    assert list(moved.values()) == [(18, 25, -10), (20, 29, -10), (-4, 0, 1),
                                    (0, 4, -1), (-4, -3, 1), (0, 1, -1)]
    assert report(monkeypatch, tmp_path, "readme", README_POINTS) \
        == report(monkeypatch, tmp_path, "moved", moved)
    rng = random.Random(5)
    for case, cfg in BASE_CONFIGURATIONS.items():
        want = report(monkeypatch, tmp_path, f"case{case}", cfg)
        for n in range(3):
            f = affine_map(rng)
            assert report(monkeypatch, tmp_path, f"case{case}-{n}",
                          {k: f(p) for k, p in cfg.items()}) == want
