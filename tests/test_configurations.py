"""Classification of six-line configurations and the cubic-pencil sequence."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest

from deepnest import configurations, conics, geometry
from deepnest.cli import main
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


def test_sampler_accepts_a_new_table_of_its_kind(monkeypatch):
    # a relabelled case 2 is still case 2, but its table is not the template's
    shifted = sigma_shift(BASE_CONFIGURATIONS[2], 1)
    assert orientation_table(shifted) != orientation_table(BASE_CONFIGURATIONS[2])
    # the same points in the same order under other labels: equal signs of
    # the unordered triples, so only the labels tell the tables apart
    assert orientation_signs(shifted) == orientation_signs(BASE_CONFIGURATIONS[2])
    monkeypatch.setattr(configurations, "perturb_configuration",
                        lambda cfg, rng: dict(shifted))
    classified = []
    monkeypatch.setattr(configurations, "classify_configuration",
                        lambda cfg: classified.append(cfg) or
                        classify_configuration(cfg))
    assert sample_configuration("case2", random.Random(0)) == shifted
    assert classified == [shifted]


def test_lemma3_case_classifies_its_template_once(monkeypatch, capsys):
    calls = {"reducible_cubic_sequence": 0, "_classify_signs": 0,
             "orientation_table": 0, "conic_pencil_events": 0}

    def counted(name):
        fn = getattr(configurations, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(configurations, name, counted(name))
    # neither the sampler, nor the circle sort, nor the Cremona map may run:
    # replace each under every name a loaded deepnest module binds it to
    def refusal(name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"lemma3 --case called {name}")
        return refuse

    for fn in (configurations.sample_configuration,
               configurations.perturb_configuration, geometry.circle_sort,
               conics.cremona):
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("deepnest"):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr,
                                            refusal(fn.__name__))
    monkeypatch.setattr(conics.CremonaMap, "point",
                        refusal("CremonaMap.point"))
    # each sign vector computed takes one chart representative per point
    reps = []
    chart_rep = geometry.chart_rep
    monkeypatch.setattr(geometry, "chart_rep",
                        lambda p: reps.append(p) or chart_rep(p))
    geometry._signs.cache_clear()
    argv = ["--json", "lemma3", "--case", "2", "--samples", "20", "--seed", "0"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert '"matchesPaper": true' in out
    assert out.count('"relabelShift": 0') == 20
    # one sequence of the template for all 20 samples: one table, one
    # classification and one pencil, from one sign vector
    assert calls == dict.fromkeys(calls, 1)
    assert len(reps) == 6


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
    # points in the same order, so the signs memo hits) or other points
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
    """The flat orientation table, one chart orientation per slot."""
    return tuple(
        geometry.chart_orient(cfg[a], cfg[b], cfg[c])
        if len({a, b, c}) == 3 and {a, b, c} <= set(cfg) else 0
        for a in range(7) for b in range(7) for c in range(7))


def test_shifted_table_is_the_table_of_the_shifted_points():
    rng = random.Random(4)
    for cfg in TEMPLATES.values():
        cfg = perturb_configuration(cfg, rng)
        for k in range(5):
            assert (configurations._shift_signs(orientation_table(cfg), k)
                    == orientation_table(sigma_shift(cfg, k)))


@pytest.mark.parametrize("perturbed", [
    {k: point(k, 2 * k) for k in range(1, 7)},  # collinear: degenerate
    BASE_CONFIGURATIONS[2],                     # valid, but the wrong kind
])
def test_sampler_falls_back_to_the_template(monkeypatch, perturbed):
    monkeypatch.setattr(configurations, "perturb_configuration",
                        lambda cfg, rng: dict(perturbed))
    cfg = sample_configuration("case1", random.Random(0))
    assert cfg == BASE_CONFIGURATIONS[1]
    assert cfg is not BASE_CONFIGURATIONS[1]


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
    assert w.kind in ("segment", "vertex", "empty")
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
