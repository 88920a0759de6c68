"""Intersection-budget audits: examples, validation, and all four tallies
of every random trace against the benchmark's region walk
(`perfbench/oracle.audit_answer`), which derives them without `audit`'s
per-arc rules or its floors."""

from __future__ import annotations

import json
import pathlib
import random

import pytest

from chart import perfbench_module
from deepnest.bezout import (
    InvalidTraceError,
    audit,
    load_trace,
    parse_trace,
)
from test_reader_oracles import random_trace

oracle = perfbench_module("oracle")

# the README's nodal cubic
CUBIC = json.loads((pathlib.Path(__file__).parent / "golden" / "trace.json")
                   .read_text(encoding="utf-8"))


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
        report = audit(parse_trace(random_trace(rng)))
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


def test_audit_agrees_with_the_benchmark_walk():
    rng = random.Random(2024)
    for _ in range(400):
        data = random_trace(rng)
        report = audit(parse_trace(data))
        assert (report.o1_crossings, report.o2_crossings, report.total,
                report.verdict) == oracle.audit_answer(data), data


def test_tally_is_invariant_under_rotation_and_reversal():
    rng = random.Random(99)
    for _ in range(200):
        trace = parse_trace(random_trace(rng))
        base = audit(trace)
        k = rng.randrange(len(trace.visits))
        rotated = trace._replace(visits=trace.visits[k:] + trace.visits[:k],
                                 arcs=trace.arcs[k:] + trace.arcs[:k])
        # reversing the traversal pairs arc i with visit i+1
        reversed_ = trace._replace(
            visits=tuple(reversed(trace.visits)),
            arcs=tuple(reversed(trace.arcs[-1:] + trace.arcs[:-1])))
        for variant in (rotated, reversed_):
            got = audit(variant)
            assert got.total == base.total
            assert got.verdict == base.verdict
            assert (got.o1_crossings, got.o2_crossings) == \
                (base.o1_crossings, base.o2_crossings)
