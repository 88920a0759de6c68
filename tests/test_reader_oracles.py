"""The trace and scheme readers against their earlier forms in `chart`.

`parse_trace` builds an error text only for the rule that fails,
`classify_deep_nest` walks each top-level group once, and `read_scheme`
finds token positions only when a rule fails.  The earlier readers built
every text first, walked each group twice and kept a position per token; on
every input, valid or broken in a few places, both must give the same
records, or the same exception class with the same message and witness or
position.  The scheme oracle keeps its own token pattern, and fixed token
edge cases (blanks inside a count, stray suffixes, digits of other scripts,
other blanks, a sign where a notation takes none) pin what both read.
"""

from __future__ import annotations

import copy
import itertools
import json
import pathlib
import random

from chart import (
    classify_deep_nest_twice,
    is_m_curve_walked,
    oval_walk,
    parse_scheme_stepwise,
    parse_signed_stepwise,
    parse_trace_eager,
)
from deepnest.bezout import parse_trace
from deepnest.orientations import parse_signed
from deepnest.schemes import (
    OvalGroup,
    RealScheme,
    SchemeSyntaxError,
    classify_deep_nest,
    is_m_curve,
    parse_scheme,
)

GOLDEN_TRACE = pathlib.Path(__file__).parent / "golden" / "trace.json"


def outcome(read, *args):
    """(exception class, message, witness oval or position) if `read`
    raises, else (None, its result, None)."""
    try:
        return None, read(*args), None
    except Exception as exc:  # the class itself is compared
        return (type(exc), str(exc),
                getattr(exc, "oval", getattr(exc, "position", None)))


# ---------------------------------------------------------------------------
# traces

def random_trace(rng) -> dict:
    """A valid trace: distinct ovals, optionally one nodal pair, integer or
    string labels, and "node"/"jCrossings"/"extras" left out at times."""
    visits = []
    for k in range(rng.randint(1, 8)):
        visit = {"oval": rng.choice((f"o{k}", 100 + k)),
                 "role": rng.choice(("median", "inner"))}
        if rng.random() < 0.3:
            visit["node"] = False
        visits.append(visit)
    if rng.random() < 0.5:
        role = rng.choice(("median", "inner"))
        first, second = sorted(rng.sample(range(len(visits) + 1), 2))
        visits.insert(first, {"oval": "n", "role": role, "node": True})
        visits.insert(second + 1, {"oval": "n", "role": role, "node": True})
    arcs = [{"jCrossings": rng.choice((0, 1, 2))} if rng.random() < 0.8
            else {} for _ in visits]
    trace = {"degree": rng.randint(1, 5), "visits": visits, "arcs": arcs}
    if rng.random() < 0.7:
        trace["extras"] = [{"count": rng.randint(0, 3), "tag": f"t{k}"}
                           for k in range(rng.randint(0, 3))]
    return trace


def _item(rng, trace, key):
    """A random element of trace[key], or None when there is none."""
    items = trace.get(key)
    return rng.choice(items) if isinstance(items, list) and items else None


def _set(rng, trace, key, field, value):
    item = _item(rng, trace, key)
    if isinstance(item, dict):
        item[field] = value


def _replace(rng, trace, key, value):
    items = trace.get(key)
    if isinstance(items, list) and items:
        items[rng.randrange(len(items))] = value


def _two_roles(rng, trace):
    visits = [v for v in trace.get("visits", []) if isinstance(v, dict)]
    if len(visits) >= 2:
        a, b = rng.sample(visits, 2)
        a.update(oval="x", role="median")
        b.update(oval="x", role="inner")


def _resize_arcs(trace, step):
    arcs = trace.get("arcs")
    if isinstance(arcs, list):
        trace["arcs"] = arcs + [{}] if step > 0 else arcs[:-1]


def _unpaired_node(rng, trace):
    _set(rng, trace, "visits", "node", True)


# one way of breaking each rule of a trace, by kind of fault
BREAKERS = {
    "wrong type": [
        lambda rng, t: t.update(degree="3"),
        lambda rng, t: t.update(visits={"oval": "a"}),
        lambda rng, t: t.update(arcs=None),
        lambda rng, t: t.update(extras=5),
        lambda rng, t: _replace(rng, t, "visits", ["median"]),
        lambda rng, t: _replace(rng, t, "arcs", 0),
        lambda rng, t: _replace(rng, t, "extras", "tag"),
        lambda rng, t: _set(rng, t, "visits", "oval", 1.5),
        lambda rng, t: _set(rng, t, "visits", "oval", None),
        lambda rng, t: _set(rng, t, "visits", "role", ["inner"]),
        lambda rng, t: _set(rng, t, "visits", "role", "outer"),
        lambda rng, t: _set(rng, t, "visits", "node", 1),
        lambda rng, t: _set(rng, t, "arcs", "jCrossings", 1.0),
        lambda rng, t: _set(rng, t, "extras", "count", "2"),
        lambda rng, t: _set(rng, t, "extras", "tag", 7),
    ],
    "unknown key": [
        lambda rng, t: t.update(surplus=1, another=2),
        lambda rng, t: _set(rng, t, "visits", "label", "a"),
        lambda rng, t: _set(rng, t, "arcs", "crossings", 1),
        lambda rng, t: _set(rng, t, "extras", "note", "x"),
    ],
    "bool for an int": [
        lambda rng, t: t.update(degree=True),
        lambda rng, t: _set(rng, t, "visits", "oval", True),
        lambda rng, t: _set(rng, t, "arcs", "jCrossings", False),
        lambda rng, t: _set(rng, t, "extras", "count", True),
    ],
    "negative count": [
        lambda rng, t: t.update(degree=rng.choice((0, -3))),
        lambda rng, t: _set(rng, t, "arcs", "jCrossings", -1),
        lambda rng, t: _set(rng, t, "extras", "count", -2),
    ],
    "empty tag": [
        lambda rng, t: _set(rng, t, "extras", "tag", rng.choice(("", " "))),
    ],
    "two roles": [_two_roles],
    "unpaired node": [_unpaired_node],
    "missing or mismatched list": [
        lambda rng, t: t.pop("visits", None),
        lambda rng, t: t.update(visits=[]),
        lambda rng, t: _resize_arcs(t, +1),
        lambda rng, t: _resize_arcs(t, -1),
        lambda rng, t: t.pop("degree", None),
    ],
}
ALL_BREAKERS = [b for group in BREAKERS.values() for b in group]


def assert_same_trace_outcome(data):
    old = outcome(parse_trace_eager, copy.deepcopy(data))
    new = outcome(parse_trace, copy.deepcopy(data))
    assert new == old, data
    return old


def test_golden_and_random_valid_traces_read_the_same():
    traces = [json.loads(GOLDEN_TRACE.read_text())]
    rng = random.Random(2601)
    traces += [random_trace(rng) for _ in range(300)]
    for data in traces:
        assert assert_same_trace_outcome(data)[0] is None, data


def test_each_broken_rule_reports_the_same_error():
    golden = json.loads(GOLDEN_TRACE.read_text())
    rng = random.Random(2602)
    seen: dict[str, int] = {}
    for kind, breakers in BREAKERS.items():
        for breaker in breakers:
            for base in [golden] + [random_trace(rng) for _ in range(20)]:
                data = copy.deepcopy(base)
                breaker(rng, data)
                cls = assert_same_trace_outcome(data)[0]
                if cls is not None:
                    seen[kind] = seen.get(kind, 0) + 1
    # every kind of fault was actually reported, not only tried
    assert set(seen) == set(BREAKERS), seen


def test_the_first_of_two_broken_rules_is_reported():
    golden = json.loads(GOLDEN_TRACE.read_text())
    rng = random.Random(2603)
    raised = 0
    for k in range(600):
        data = copy.deepcopy(golden if k % 5 == 0 else random_trace(rng))
        for breaker in rng.sample(ALL_BREAKERS, 2):
            breaker(rng, data)
        raised += assert_same_trace_outcome(data)[0] is not None
    assert raised > 500


# faults of one item, or of the trace itself, as (list key or None, update)
ITEM_FAULTS = [
    ("visits", {"oval": 1.5}), ("visits", {"role": "outer"}),
    ("visits", {"node": 1}), ("visits", {"label": "x"}),
    ("arcs", {"jCrossings": -1}), ("arcs", {"crossings": 1}),
    ("extras", {"count": -1}), ("extras", {"tag": ""}),
    ("extras", {"note": 1}),
    (None, {"degree": 0}), (None, {"surplus": 1}), (None, {"extras": 5}),
]


def test_two_faults_in_one_item_or_level_report_the_first_rule():
    """Every ordered pair of faults, put into the same visit, arc or extra
    (or into the trace) where both apply, so that only the order of the
    rules decides which one is reported."""
    base = json.loads(GOLDEN_TRACE.read_text())
    base["extras"] = [{"count": 1, "tag": "t"}]
    for (key1, fault1), (key2, fault2) in itertools.permutations(
            ITEM_FAULTS, 2):
        for k in range(3):
            data = copy.deepcopy(base)
            for key, fault in ((key1, fault1), (key2, fault2)):
                items = data.get(key)
                if key is None:
                    data.update(fault)
                elif isinstance(items, list):
                    items[k % len(items)].update(fault)
            assert assert_same_trace_outcome(data)[0] is not None


def test_a_non_object_trace_and_mixed_unknown_keys():
    for data in ([], "trace", None, 3, {"zeta": 1, "alpha": 2, "degree": 1}):
        assert assert_same_trace_outcome(data)[0] is not None


# ---------------------------------------------------------------------------
# scheme trees

def random_group(rng, depth: int) -> OvalGroup:
    count = rng.choice((1, 1, 1, 2, 3))
    if depth <= 1 or rng.random() < 0.35:
        return OvalGroup(count)
    body = tuple(random_group(rng, depth - 1)
                 for _ in range(rng.randint(1, 3)))
    return OvalGroup(count, body)


def random_scheme(rng) -> RealScheme:
    """A degree-9 scheme: a deep nest in the paper's shape, sometimes with
    one extra group or one level more, or a random forest of depth up to 6
    (mostly inadmissible)."""
    if rng.random() < 0.5:
        alpha = rng.choice((0, 0, 1))
        beta = rng.randint(0, 25 - alpha)
        text = f"<J + {alpha} + 1<{beta} + 1<{26 - beta - alpha}>>>"
        groups = list(parse_scheme(text, 9).groups)
        if rng.random() < 0.5:
            groups.insert(rng.randrange(len(groups) + 1),
                          random_group(rng, rng.randint(1, 5)))
        return RealScheme(9, True, tuple(groups))
    groups = tuple(random_group(rng, rng.randint(1, 6))
                   for _ in range(rng.randint(0, 4)))
    return RealScheme(9, True, groups)


def test_random_trees_classify_and_count_the_same():
    rng = random.Random(2604)
    kinds = set()
    for _ in range(3000):
        s = random_scheme(rng)
        for g in s.groups:
            assert g._walk() == oval_walk(g)
        old = outcome(classify_deep_nest_twice, s)
        assert outcome(classify_deep_nest, s) == old, s
        assert is_m_curve(s) == is_m_curve_walked(s), s
        kinds.add(old[1].split(":")[0] if old[0] else type(old[1]).__name__)
        kinds.add(is_m_curve(s))
    # profiles, no nest, each inadmissibility, and both is_m_curve answers
    assert kinds >= {"DeepNestProfile", "NoneType", True, False,
                     "oval nested beyond depth 3",
                     "two disjoint depth-3 nests",
                     "non-empty oval outside the nest",
                     "second non-empty oval inside the outer nest oval"}


def test_a_1501_deep_nest_classifies_without_recursion():
    depth = 1501
    text = "<J + " + "1<" * (depth - 1) + "1" + ">" * (depth - 1) + ">"
    s = parse_scheme(text, 2 * depth + 1)
    (g,) = s.groups
    assert g.depth() == depth and g.ovals() == depth
    assert outcome(classify_deep_nest, s) == outcome(
        classify_deep_nest_twice, s)
    assert is_m_curve(s) == is_m_curve_walked(s) is False


# ---------------------------------------------------------------------------
# scheme texts

def random_body(rng, room: int, signed: bool) -> str:
    """Items of one level, nested at most `room` levels deeper."""
    items = []
    for _ in range(rng.randint(1, 4)):
        if room == 0:
            items.append("0")
        elif room > 1 and rng.random() < 0.35:
            head = "1" if signed else str(rng.choice((0, 1, 1, 2, 3)))
            if signed:
                head += rng.choice(("_+", "_-"))
            items.append(f"{head}<{random_body(rng, room - 1, signed)}>")
        elif signed:
            items.append(rng.choice(("0", f"{rng.randint(0, 12)}_+",
                                     f"{rng.randint(0, 12)}_-")))
        else:
            items.append(str(rng.randint(0, 12)))
    return rng.choice((" + ", "+", "  +\t")).join(items)


def random_scheme_text(rng, degree: int, signed: bool) -> str:
    """A valid text of the degree: J exactly when it is odd, anywhere at the
    top level, and counts nested at most degree // 2 deep."""
    body = random_body(rng, degree // 2, signed)
    if degree % 2:
        body = rng.choice(("J + " + body, body + " + J", "J"))
    return rng.choice(("<", " < ")) + body + rng.choice((">", "> ", " >"))


# what a break puts into a text: the grammar's characters, digits with and
# without leading zeros, sign suffixes, and digits of other scripts
INSERTS = ["<", ">", "+", "J", "0", "7", "07", "_", "_+", "_-", " ",
           "x", "1<", ">>", "<J>", "\u0662", "\u0660\u0667", "\uff11"]


def break_text(rng, text: str) -> str:
    at = rng.randrange(len(text) + 1)
    kind = rng.randrange(4)
    if kind == 0:       # insert
        return text[:at] + rng.choice(INSERTS) + text[at:]
    if kind == 1:       # delete
        return text[:at] + text[at + 1:]
    if kind == 2:       # replace
        return text[:at] + rng.choice(INSERTS) + text[at + 1:]
    digits = [k for k, c in enumerate(text) if c in "0123456789"]
    if not digits:
        return text
    at = rng.choice(digits)     # another count, or a leading zero
    return text[:at] + rng.choice("0123") + text[at + 1:]


def assert_same_scheme_outcome(text: str, degree: int):
    """Both notations, each through both readers; the outcomes."""
    outcomes = []
    for new, old in ((parse_scheme, parse_scheme_stepwise),
                     (parse_signed, parse_signed_stepwise)):
        expected = outcome(old, text, degree)
        assert outcome(new, text, degree) == expected, (text, degree)
        outcomes.append(expected)
    return outcomes


SCHEME_RULES = {
    "expected '<'", "expected an item", "expected '>'",
    "trailing input after scheme", "counts may not have leading zeros",
    "nest deeper than degree // 2",
    "the one-sided component cannot lie inside an oval",
    "duplicate one-sided component", "odd-degree scheme must contain J",
    "even-degree scheme cannot contain J",
    "a plain scheme count takes no sign",
    "a signed count needs the suffix '_+' or '_-'",
    "signed containers must have count 1",
}


def test_random_scheme_texts_read_the_same():
    """Valid texts in both notations at degrees 1..12, each also broken in
    one to three places, sometimes read at another degree."""
    rng = random.Random(2701)
    valid = broken = 0
    rules = set()
    for k in range(2400):
        degree = rng.randint(1, 12)
        text = random_scheme_text(rng, degree, signed=k % 2 == 1)
        plain, signed = assert_same_scheme_outcome(text, degree)
        assert (signed if k % 2 else plain)[0] is None, (text, degree)
        valid += 1
        for _ in range(rng.randint(1, 3)):
            text = break_text(rng, text)
        if rng.random() < 0.2:
            degree = rng.randint(1, 12)
        for cls, message, _ in assert_same_scheme_outcome(text, degree):
            if cls is not None:
                broken += 1
                rules.add(message.split(" (at position")[0].split(" = ")[0])
    assert valid == 2400 and broken > 2400
    # every rule of the reader and of both item builders was reported
    assert rules == SCHEME_RULES, rules ^ SCHEME_RULES


def test_empty_and_blank_scheme_texts_read_the_same():
    for text in ("", " ", "\t\n", "<", "<>", "< >", "J", "<J", "<J +",
                 "<J + 1<", "<1<2>", ">", "<J>>", "<J> <J>"):
        for degree in (1, 2, 9):
            assert_same_scheme_outcome(text, degree)


NO_SIGN = "a plain scheme count takes no sign"
NEEDS_SIGN = "a signed count needs the suffix '_+' or '_-'"
ITEM, CLOSE = "expected an item", "expected '>'"
ZERO = "counts may not have leading zeros"

# token edge cases at degree 9, written in the plain and in the signed
# notation: (text, plain outcome, signed outcome), an outcome being None
# for a record or (message, position) for the SchemeSyntaxError
TOKEN_EDGES = [
    # a blank between a count and its suffix, or inside the suffix
    ("<J + 1 _+>", (CLOSE, 7), (NEEDS_SIGN, 5)),
    ("<J + 1_ +>", (CLOSE, 6), (NEEDS_SIGN, 5)),
    ("<J + 1<2 _>>", (CLOSE, 9), (NEEDS_SIGN, 7)),
    ("<J + 1_+<2 _->>", (CLOSE, 11), (NEEDS_SIGN, 9)),
    ("<J + 1_ -<1_+>>", (CLOSE, 6), (NEEDS_SIGN, 5)),
    # a lone suffix, a leading zero before one, and a doubled underscore
    ("<J + _+>", (ITEM, 5), (ITEM, 5)),
    ("<J + 2 + _->", (ITEM, 9), (NEEDS_SIGN, 5)),
    ("<J + 1<_+>>", (ITEM, 7), (ITEM, 7)),
    ("<J + 01>", (ZERO, 5), (ZERO, 5)),
    ("<J + 01_+>", (ZERO, 5), (ZERO, 5)),
    ("<J + 1<01_->>", (ZERO, 7), (ZERO, 7)),
    ("<J + 1<1__>>", (CLOSE, 8), (NEEDS_SIGN, 7)),
    ("<J + 1__+>", (CLOSE, 6), (NEEDS_SIGN, 5)),
    ("<J + 1_+<1__->>", (CLOSE, 10), (NEEDS_SIGN, 9)),
    # digits of another script: one character each, never a count
    ("<J + ٣>", (ITEM, 5), (ITEM, 5)),
    ("<J + ٣_+>", (ITEM, 5), (ITEM, 5)),
    ("<J + ٠٧ + 21>", (ITEM, 5), (ITEM, 5)),
    ("<J + ٠٧_- + 21_+>", (ITEM, 5), (ITEM, 5)),
    ("<J + 1٣_+>", (CLOSE, 6), (NEEDS_SIGN, 5)),
    ("<J + 3_٣>", (CLOSE, 6), (NEEDS_SIGN, 5)),
    # a tab, a newline or a no-break space between tokens, trailing blanks
    ("<J\t+\t1>", None, (NEEDS_SIGN, 5)),
    ("<J\t+\t1_+>", (NO_SIGN, 5), None),
    ("<J\n+ 1<2>>", None, (NEEDS_SIGN, 7)),
    ("<J\n+ 1_-<2_+>>", (NO_SIGN, 9), None),
    ("<J\t+\n1<\u00a02>>", None, (NEEDS_SIGN, 8)),
    ("<J\t+\n1_+<\u00a02_->>", (NO_SIGN, 10), None),
    ("<J\u00a0+\u00a01>", None, (NEEDS_SIGN, 5)),
    ("<J\u00a0+\u00a01_->", (NO_SIGN, 5), None),
    ("\t<J + 3>  ", None, (NEEDS_SIGN, 6)),
    ("<J + 2_- + 1_+<3_+>>\t\n", (NO_SIGN, 5), None),
    # a sign on a plain count, and a signed count without one
    ("<J + 3_+>", (NO_SIGN, 5), None),
    ("<J + 3>", None, (NEEDS_SIGN, 5)),
    ("<J + 1_-<2>>", (NO_SIGN, 5), (NEEDS_SIGN, 9)),
    ("<J + 1<2_+>>", (NO_SIGN, 7), (NEEDS_SIGN, 5)),
]


def test_token_edge_cases_read_as_the_oracle_does():
    """Each edge case gives the oracle's record in both notations, or its
    exception class, message and position, and the one pinned here."""
    for text, *wanted in TOKEN_EDGES:
        got = assert_same_scheme_outcome(text, 9)
        for (cls, message, position), want in zip(got, wanted):
            if want is None:
                assert cls is None, (text, message)
            else:
                assert (cls, message, position) == (
                    SchemeSyntaxError,
                    f"{want[0]} (at position {want[1]})", want[1]), text
