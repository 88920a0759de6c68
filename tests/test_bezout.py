"""Intersection-budget audits: examples, validation, and a walk-based recount."""

from __future__ import annotations

import json
import random

import pytest

from deepnest.bezout import (
    AuxCurveTrace,
    InvalidTraceError,
    audit,
    load_trace,
    parse_trace,
)
from region_walk import recount_by_region_walk

CUBIC = {
    "degree": 3,
    "visits": [
        {"oval": "1", "role": "inner", "node": True},
        {"oval": "2", "role": "median"},
        {"oval": "3", "role": "median"},
        {"oval": "4", "role": "median"},
        {"oval": "1", "role": "inner", "node": True},
        {"oval": "5", "role": "median"},
        {"oval": "6", "role": "median"},
    ],
    "arcs": [{"jCrossings": 0}, {"jCrossings": 1}, {"jCrossings": 1},
             {"jCrossings": 0}, {"jCrossings": 0}, {"jCrossings": 1},
             {"jCrossings": 0}],
}


def trace_of(degree, roles, j=None, extras=()):
    return parse_trace({
        "degree": degree,
        "visits": [{"oval": f"v{i}", "role": r} for i, r in enumerate(roles)],
        "arcs": [{"jCrossings": c} for c in (j or [0] * len(roles))],
        "extras": list(extras),
    })


def test_nodal_cubic_saturates_its_budget():
    report = audit(parse_trace(CUBIC))
    assert report.verdict == "SATURATED"
    assert report.total == report.bound == 27
    assert report.o1_crossings == 6
    assert report.o2_crossings == 4
    assert report.j_crossings == 3
    assert report.per_oval["1"] == 4    # the node pays double
    assert sum(report.per_oval.values()) == 14


def test_line_through_two_inner_ovals():
    report = audit(trace_of(1, ["inner", "inner"]))
    # 4 visit points, plus the forced escapes across both nest ovals
    assert (report.total, report.bound) == (8, 9)
    assert report.o1_crossings == report.o2_crossings == 2
    assert report.verdict == "WITHIN"


def test_conic_alternating_five_visits():
    report = audit(trace_of(2, ["median", "inner", "median", "inner", "median"]))
    assert report.total == 14
    assert (report.o1_crossings, report.o2_crossings) == (0, 4)
    assert report.verdict == "WITHIN"


def test_conic_with_eight_visits_overruns():
    roles = ["median", "inner", "median", "inner"] + ["median"] * 4
    report = audit(trace_of(2, roles))
    assert report.total == 20
    assert report.bound == 18
    assert report.verdict == "VIOLATION"


def test_extras_count_toward_the_budget():
    extras = [{"count": 3, "tag": "transverse at the hyperbola branch"},
              {"count": 2, "tag": "tangency pair"}]
    report = audit(trace_of(2, ["median", "inner"], extras=extras))
    assert report.extras_total == 5
    assert report.total == 4 + 2 + 5


def test_even_degree_has_no_forced_escape():
    report = audit(trace_of(2, ["inner", "inner"]))
    assert (report.o1_crossings, report.o2_crossings) == (0, 0)
    assert report.total == 4


def test_odd_degree_escape_skips_inner_when_a_median_is_visited():
    report = audit(trace_of(3, ["median", "median"]))
    assert (report.o1_crossings, report.o2_crossings) == (2, 0)


def test_closed_curve_crossings_are_always_even():
    # each arc contributes to both nest ovals with the parity of its
    # endpoints, so totals around a closed traversal telescope to even
    rng = random.Random(41)
    for _ in range(100):
        report = audit(random_trace(rng))
        assert report.o1_crossings % 2 == 0
        assert report.o2_crossings % 2 == 0


def test_single_excursion_pays_both_ovals():
    report = audit(trace_of(3, ["median", "inner", "inner"], j=[0, 0, 1]))
    assert (report.o1_crossings, report.o2_crossings) == (2, 2)
    assert report.j_crossings == 1
    assert report.total == 11


def test_validation_rejects_malformed_traces():
    bad = [
        ({"degree": 0, "visits": CUBIC["visits"], "arcs": CUBIC["arcs"]},
         "degree"),
        ({"degree": True, "visits": CUBIC["visits"], "arcs": CUBIC["arcs"]},
         "degree"),
        ({"degree": 2, "visits": [], "arcs": []}, "non-empty"),
        ({"degree": 2, "visits": [{"oval": "a", "role": "inner"}],
          "arcs": []}, "one arc per visit"),
        ({"degree": 2, "visits": [{"oval": "a", "role": "outer"}],
          "arcs": [{}]}, "role"),
        ({"degree": 2, "visits": [{"oval": "a", "role": "inner"},
                                  {"oval": "a", "role": "median"}],
          "arcs": [{}, {}]}, "two roles"),
        ({"degree": 2, "visits": [{"oval": "a", "role": "inner", "node": True},
                                  {"oval": "b", "role": "median"}],
          "arcs": [{}, {}]}, "pair up"),
        ({"degree": 2, "visits": [{"oval": "a", "role": "inner"}],
          "arcs": [{"jCrossings": -1}]}, "nonnegative"),
        ({"degree": 2, "visits": [{"oval": "a", "role": "inner"}],
          "arcs": [{}], "extras": [{"count": 2, "tag": "  "}]}, "untagged"),
        ({"degree": 2, "visits": [{"oval": "a", "role": "inner"}],
          "arcs": [{}], "surplus": 1}, "unknown keys"),
    ]
    for data, fragment in bad:
        with pytest.raises(InvalidTraceError) as exc:
            parse_trace(data)
        assert fragment in str(exc.value), data


def test_validation_rejects_wrongly_typed_fields():
    visit = [{"oval": "a", "role": "inner"}]
    for data, fragment in [
        ({"degree": 2, "visits": [{"oval": "a", "role": ["inner"]}],
          "arcs": [{}]}, "role"),
        ({"degree": 2, "visits": visit, "arcs": [{}], "extras": 5}, "extras"),
        ({"degree": 2, "visits": visit, "arcs": [{}], "extras": None},
         "extras"),
    ]:
        with pytest.raises(InvalidTraceError) as exc:
            parse_trace(data)
        assert fragment in str(exc.value), data


def test_load_trace_rejects_bad_json(tmp_path):
    p = tmp_path / "trace.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(InvalidTraceError):
        load_trace(str(p))
    p.write_text(json.dumps(CUBIC), encoding="utf-8")
    assert audit(load_trace(str(p))).verdict == "SATURATED"


def random_trace(rng: random.Random) -> AuxCurveTrace:
    n = rng.randrange(1, 8)
    roles = [rng.choice(["median", "inner"]) for _ in range(n)]
    j = [rng.choice([0, 0, 0, 1, 2]) for _ in range(n)]
    return trace_of(rng.choice([1, 2, 3]), roles, j)


def expected_from_walk(trace: AuxCurveTrace):
    """Recount crossings on the region graph, then apply the same escape and
    parity book-keeping the audit documents."""
    o1, o2 = recount_by_region_walk(trace)
    if trace.degree % 2 == 1:
        if o1 == 0:
            o1 = 2
        if o2 == 0 and all(v.role == "inner" for v in trace.visits):
            o2 = 2
    return o1 + o1 % 2, o2 + o2 % 2


def test_audit_agrees_with_region_walk_recount():
    rng = random.Random(2024)
    for _ in range(400):
        trace = random_trace(rng)
        report = audit(trace)
        assert (report.o1_crossings, report.o2_crossings) == \
            expected_from_walk(trace)
        assert report.total == (2 * len(trace.visits)
                                + report.o1_crossings + report.o2_crossings
                                + report.j_crossings)


def test_tally_is_invariant_under_rotation_and_reversal():
    rng = random.Random(99)
    for _ in range(200):
        trace = random_trace(rng)
        base = audit(trace)
        k = rng.randrange(len(trace.visits))
        rotated = AuxCurveTrace(trace.degree,
                                trace.visits[k:] + trace.visits[:k],
                                trace.arcs[k:] + trace.arcs[:k])
        # reversing the traversal pairs arc i with visit i+1
        rev_visits = tuple(reversed(trace.visits))
        rev_arcs = tuple(reversed(trace.arcs[-1:] + trace.arcs[:-1]))
        reversed_ = AuxCurveTrace(trace.degree, rev_visits, rev_arcs)
        for variant in (rotated, reversed_):
            got = audit(variant)
            assert got.total == base.total
            assert got.verdict == base.verdict
            assert (got.o1_crossings, got.o2_crossings) == \
                (base.o1_crossings, base.o2_crossings)
