"""Classification of six-line configurations and the cubic-pencil sequence."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from deepnest import configurations, geometry
from deepnest.configurations import (
    BASE_CONFIGURATIONS,
    EXCLUSION_TEMPLATES,
    InvalidConfigurationError,
    REFERENCE_SEQUENCES,
    classify_configuration,
    configuration_kind,
    cyclic_equal,
    find_witness,
    perturb_configuration,
    reducible_cubic_sequence,
    sample_configuration,
    sigma_shift,
    verify_witness,
)
from deepnest.geometry import orientation_signs, orientation_table
from chart import EXPECTED_WITNESSES, point


def test_base_configurations_classify_canonically():
    regions = {}
    for case in (1, 2, 3):
        cl = classify_configuration(BASE_CONFIGURATIONS[case])
        assert cl.verdict == "case"
        assert cl.case == case
        assert cl.relabel_shift == 0
        assert configuration_kind(cl) == f"case{case}"
        regions[case] = cl.region
    assert regions[1] is None
    assert regions[2] == "T4"
    assert regions[3] == "T3"


def test_relabelled_configurations_report_the_inverse_shift():
    for k in range(5):
        for case in (2, 3):
            cl = classify_configuration(sigma_shift(BASE_CONFIGURATIONS[case], k))
            assert cl.case == case
            assert (cl.relabel_shift + k) % 5 == 0
        # the convex case is invariant under relabelling
        cl = classify_configuration(sigma_shift(BASE_CONFIGURATIONS[1], k))
        assert (cl.case, cl.relabel_shift) == (1, 0)


def test_sequences_match_reference():
    for case in (1, 2, 3):
        rep = reducible_cubic_sequence(BASE_CONFIGURATIONS[case])
        assert rep.matches_reference
        assert len(rep.events) == 5
        assert cyclic_equal(list(rep.events), REFERENCE_SEQUENCES[case])


def test_sequences_survive_relabelling_and_perturbation():
    rng = random.Random(11)
    for case in (1, 2, 3):
        for _ in range(10):
            cfg = sigma_shift(BASE_CONFIGURATIONS[case], rng.randrange(5))
            cfg = perturb_configuration(cfg, rng)
            rep = reducible_cubic_sequence(cfg)
            assert rep.classification.case == case
            assert rep.matches_reference


def fraction_perturbation(cfg, rng):
    """The perturbation in affine coordinates, one Fraction at a time."""
    out = {}
    for k, p in cfg.items():
        x = Fraction(p[0], p[2]) + Fraction(rng.randint(-7, 7), 2000)
        y = Fraction(p[1], p[2]) + Fraction(rng.randint(-7, 7), 2000)
        out[k] = point(x, y)
    return out


def test_perturbation_matches_the_fraction_formula():
    templates = [*BASE_CONFIGURATIONS.values(), *EXCLUSION_TEMPLATES.values()]
    assert len(templates) == 28
    for seed in range(60):
        for cfg in templates:
            assert (perturb_configuration(cfg, random.Random(seed))
                    == fraction_perturbation(cfg, random.Random(seed)))


def test_sampler_produces_requested_kind():
    rng = random.Random(3)
    for kind in ("case1", "case2", "case3"):
        for _ in range(5):
            cfg = sample_configuration(kind, rng)
            assert configuration_kind(classify_configuration(cfg)) == kind


TEMPLATES = {**{f"case{k}": cfg for k, cfg in BASE_CONFIGURATIONS.items()},
             **EXCLUSION_TEMPLATES}


def test_every_template_classifies_as_its_own_kind():
    assert len(TEMPLATES) == 28
    for kind, cfg in TEMPLATES.items():
        assert configuration_kind(classify_configuration(cfg)) == kind
        # the sampler's premise: the template's table alone decides its kind
        assert 0 not in orientation_signs(cfg)
        signs = orientation_table(cfg)
        assert configuration_kind(configurations._classify_signs(signs)[0]) == kind


def oracle_sample(kind, rng):
    """The sampler's acceptance rule, spelled out: perturb the template,
    classify, and keep the sample only if it is of the requested kind."""
    template = TEMPLATES[kind]
    cfg = perturb_configuration(template, rng)
    try:
        if configuration_kind(classify_configuration(cfg)) == kind:
            return cfg
    except ValueError:
        pass
    return dict(template)


@pytest.mark.parametrize("kind", sorted(TEMPLATES))
def test_sampler_follows_the_classifier(kind):
    for seed in range(200):
        assert (sample_configuration(kind, random.Random(seed))
                == oracle_sample(kind, random.Random(seed)))


def test_sampler_neither_classifies_nor_computes_a_sign(monkeypatch):
    # no perturbation changes a template's kind (tests/test_table_proof.py),
    # so a sample is one perturbation of its template and nothing more
    def refuse(*args):
        raise AssertionError("the sampler classified or computed a sign")

    monkeypatch.setattr(configurations, "classify_configuration", refuse)
    monkeypatch.setattr(configurations, "_classify_signs", refuse)
    monkeypatch.setattr(geometry, "chart_rep", refuse)
    rng = random.Random(5)
    for kind, template in TEMPLATES.items():
        seed = rng.getrandbits(32)
        assert (sample_configuration(kind, random.Random(seed))
                == perturb_configuration(template, random.Random(seed)))


@pytest.mark.parametrize("case", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sequence_relabels_the_table_once(monkeypatch, case, k):
    shifts = []
    shift_signs = configurations._shift_signs
    monkeypatch.setattr(configurations, "_shift_signs",
                        lambda signs, j: shifts.append(j) or shift_signs(signs, j))
    rep = reducible_cubic_sequence(sigma_shift(BASE_CONFIGURATIONS[case], k))
    assert rep.classification.relabel_shift != 0
    assert rep.matches_reference
    # the classifier's relabeled table serves the position cycles too
    assert shifts == [rep.classification.relabel_shift]


def test_tables_ignore_insertion_order_and_never_mix_configurations():
    rng = random.Random(2020)
    for case in (1, 2, 3):
        cfg = perturb_configuration(
            sigma_shift(BASE_CONFIGURATIONS[case], case), rng)
        table = orientation_table(cfg)
        cl = classify_configuration(cfg)
        rep = reducible_cubic_sequence(cfg)
        assert rep.matches_reference
        for _ in range(50):
            labels = list(cfg)
            rng.shuffle(labels)
            shuffled = {k: cfg[k] for k in labels}
            assert orientation_table(shuffled) == table
            assert classify_configuration(shuffled) == cl
            assert reducible_cubic_sequence(shuffled) == rep
    # A, B, A in turn, where B is A's points under other labels (the same
    # points in the same order) or other points
    a = BASE_CONFIGURATIONS[2]
    b_relabelled = sigma_shift(a, 2)
    b_other = EXCLUSION_TEMPLATES["quadrangle-A-T1"]
    for b, want_b in ((b_relabelled, ("case2", 3)),
                      (b_other, ("quadrangle-A-T1", 0))):
        for c, want in ((a, ("case2", 0)), (b, want_b), (a, ("case2", 0))):
            cl = classify_configuration(c)
            assert (configuration_kind(cl), cl.relabel_shift) == want
            assert orientation_table(c) == table_from_points(c)


def table_from_points(cfg):
    """The orientation table, one chart orientation per entry of its
    layout: the triples of 1..6, then those with their first two labels
    swapped."""
    return tuple(geometry.chart_orient(cfg[a], cfg[b], cfg[c])
                 for a, b, c in geometry.TABLE_KEYS)


def test_shifted_table_is_the_table_of_the_shifted_points():
    rng = random.Random(4)
    for cfg in TEMPLATES.values():
        cfg = perturb_configuration(cfg, rng)
        for k in range(5):
            assert (configurations._shift_signs(orientation_table(cfg), k)
                    == orientation_table(sigma_shift(cfg, k)))


def test_excluded_orderings_yield_witnessed_contradictions():
    rng = random.Random(20)
    for kind, template in EXCLUSION_TEMPLATES.items():
        cl = classify_configuration(template)
        assert cl.verdict == "contradiction", kind
        assert configuration_kind(cl) == kind
        assert cl.witness is not None
        assert cl.witness.text in EXPECTED_WITNESSES[kind]
        assert verify_witness(template, cl.witness)
        # a sampled neighbour keeps the same obstruction
        cfg = sample_configuration(kind, rng)
        cl2 = classify_configuration(cfg)
        assert cl2.verdict == "contradiction"
        assert cl2.witness.text in EXPECTED_WITNESSES[kind]


def test_witnesses_are_checkable_and_exclusive():
    for case in (1, 2, 3):
        assert find_witness(orientation_table(BASE_CONFIGURATIONS[case])) is None
    w = classify_configuration(EXCLUSION_TEMPLATES["convex-23465"]).witness
    assert len(w.shared) in (1, 2)
    assert not verify_witness(BASE_CONFIGURATIONS[1], w)


def test_valid_cases_never_raise_contradiction():
    rng = random.Random(7)
    for _ in range(30):
        kind = rng.choice(["case1", "case2", "case3"])
        cfg = sample_configuration(kind, rng)
        cl = classify_configuration(cfg)
        assert cl.verdict == "case"
        assert cl.witness is None


def test_cyclic_equal():
    assert cyclic_equal([1, 2, 3], [2, 3, 1])
    assert not cyclic_equal([1, 2, 3], [2, 1, 3])
    assert not cyclic_equal([1, 2], [1, 2, 3])
    assert cyclic_equal([], [])


def test_sampler_rejects_unknown_kind():
    with pytest.raises(InvalidConfigurationError):
        sample_configuration("case9", random.Random(0))
