"""The sign-table classifier against the point-based oracle, and its
invariance under orientation-preserving affine maps."""

from __future__ import annotations

import random

from deepnest.configurations import (
    BASE_CONFIGURATIONS,
    EXCLUSION_TEMPLATES,
    Classification,
    InvalidConfigurationError,
    classify_configuration,
    configuration_kind,
    perturb_configuration,
    sample_configuration,
    sigma_shift,
)
from deepnest.geometry import DegeneratePositionError, normalize
from chart import EXPECTED_WITNESSES, affine_map, point
from point_classifier import classify_by_points, sweep_order

TEMPLATES = {**{f"case{k}": cfg for k, cfg in BASE_CONFIGURATIONS.items()},
             **EXCLUSION_TEMPLATES}


def outcome(classify, cfg):
    """The Classification, or the class of the input error it raised."""
    try:
        return classify(cfg)
    except (InvalidConfigurationError, DegeneratePositionError) as exc:
        return type(exc)


def grid_configuration(rng, span):
    return {k: point(rng.randint(-span, span), rng.randint(-span, span))
            for k in range(1, 7)}


def pencil_labelled(cfg, rng):
    """The points of `cfg` relabelled so that 2..6 follow the pencil at 1,
    starting at a random one of them (None if two points coincide or the
    pencil is degenerate)."""
    if len(set(cfg.values())) != 6:
        return None
    try:
        order = sweep_order(cfg)
    except InvalidConfigurationError:
        return None
    start = rng.randrange(5)
    order = order[start:] + order[:start]
    return {1: cfg[1], **{2 + i: cfg[lab] for i, lab in enumerate(order)}}


def degenerate_configurations():
    base = dict(BASE_CONFIGURATIONS[1])
    on_j = {**base, 4: normalize(1, 2, 0)}
    repeated = {**base, 5: base[3]}
    # point 1 at the origin, 2 and 5 on one line through it
    pencil = {1: point(0, 0), 2: point(1, 0), 3: point(1, 1), 4: point(0, 1),
              5: point(-2, 0), 6: point(1, -1)}
    shuffled = {**base, 3: base[4], 4: base[3]}
    # 2, 3, 4 on the line x = 10, out of every line through point 1
    collinear = {1: point(0, 0), 2: point(10, -1), 3: point(10, 1),
                 4: point(10, 3), 5: point(1, 10), 6: point(-10, 10)}
    return [
        (on_j, DegeneratePositionError),
        (repeated, InvalidConfigurationError),
        (pencil, InvalidConfigurationError),
        (shuffled, InvalidConfigurationError),
        (collinear, DegeneratePositionError),
    ]


def test_degenerate_inputs_raise_the_oracle_error():
    for cfg, error in degenerate_configurations():
        assert outcome(classify_by_points, cfg) is error
        assert outcome(classify_configuration, cfg) is error


def test_sign_table_classifier_matches_the_point_oracle():
    rng = random.Random(20261018)
    configs = [cfg for cfg, _ in degenerate_configurations()]
    for template in TEMPLATES.values():
        for _ in range(40):
            cfg = perturb_configuration(template, rng)
            configs.append(sigma_shift(cfg, rng.randrange(5)))
    while len(configs) < 10_000:
        cfg = grid_configuration(rng, rng.choice([3, 6, 12, 40]))
        configs.append(cfg)
        relabelled = pencil_labelled(cfg, rng)
        if relabelled is not None:
            configs.append(relabelled)
    seen = set()
    for cfg in configs:
        want = outcome(classify_by_points, cfg)
        assert outcome(classify_configuration, cfg) == want, cfg
        seen.add(want.verdict if isinstance(want, Classification) else want)
    assert seen == {"case", "contradiction", InvalidConfigurationError,
                    DegeneratePositionError}


def test_classification_is_invariant_under_positive_affine_maps():
    rng = random.Random(31)
    for kind in TEMPLATES:
        for _ in range(8):
            cfg = sample_configuration(kind, rng)
            cl = classify_configuration(cfg)
            f = affine_map(rng)
            moved = classify_configuration({k: f(p) for k, p in cfg.items()})
            assert moved == cl
            assert configuration_kind(moved) == kind
            if kind in EXPECTED_WITNESSES:
                assert moved.witness.text in EXPECTED_WITNESSES[kind]
