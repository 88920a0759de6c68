"""Lemma 3 as a finite table: every order type of six labelled points,
enumerated and classified, with the facts about it that the command path
relies on.

The classifier reads a configuration only through the signs of its 20 label
triples (`deepnest.geometry.orientation_table`).  Six points of the affine
chart in general position give a sign vector that satisfies the 3-term
Grassmann-Pluecker relations and is acyclic, so the backtracking below
reaches every table that points can produce, and the facts proved for it
hold for every configuration:

* 11,904 sign vectors; 496 are in pencil order at point 1, of 44 kinds; 26
  are valid (1, 10 and 15 per case), and each of the other 470 has a
  triangle-pair witness, and the edge plans of `find_witness` find the
  first one that the search over an orientation closure finds;
* on each valid table C = [123][145][246][356] - [124][135][236][456] is
  nonzero, with a sign fixed by the table, and the sequence that
  `reducible_cubic_sequence` computes from the table matches the reference
  exactly where C < 0: on 11 tables (1, 5 and 5 per case), and on none of
  the 15 with C > 0;
* no perturbation the sampler makes changes a sign of a base template, so
  every sample of `lemma3 --case k` has its template's table; nor does one
  make a sign of any template 0 or change its kind;
* a table with a zero sign stops in the classifier, before the event order
  or the witness search reads it.

So `conics.conic_pencil_events` needs no conic test and meets no zero turn,
`configurations.find_witness` needs no zero test and
`configurations._contradiction` always finds a witness, `lemma3 --case`
classifies its template once, and `configurations.sample_configuration`
returns one perturbation of its template without classifying it.  Every
integer here is exact.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from itertools import combinations, permutations, product

import pytest

from deepnest import configurations
from deepnest.configurations import (
    BASE_CONFIGURATIONS,
    EXCLUSION_TEMPLATES,
    InvalidConfigurationError,
    _PENCIL_TURNS,
    _WITNESS_PAIRS,
    _classify_signs,
    configuration_kind,
    find_witness,
    perturb_configuration,
    reducible_cubic_sequence,
)
from deepnest.geometry import (
    TABLE_KEYS,
    DegeneratePositionError,
    _hull_cycle,
    chart_orient,
    chart_rep,
    det3,
    normalize,
    orientation_signs,
    slot,
)
from chart import find_witness_by_closure, hull_cycle_looped

LABELS = (1, 2, 3, 4, 5, 6)
TEMPLATES = {**{f"case{k}": cfg for k, cfg in BASE_CONFIGURATIONS.items()},
             **EXCLUSION_TEMPLATES}
TRIPLES = tuple(combinations(LABELS, 3))
INDEX = {t: i for i, t in enumerate(TRIPLES)}


def parity(t) -> int:
    """The sign of the permutation that sorts `t`."""
    return (-1) ** sum(x > y for x, y in combinations(t, 2))


def bracket(*t):
    """[abc] of distinct labels as (sign of the sort, index of the sorted
    triple in `TRIPLES`)."""
    return parity(t), INDEX[tuple(sorted(t))]


def rule(*terms):
    """A rule on a sign vector: the terms, each a sign times a product of
    brackets, must not all be equal.  As (sign, indices) per term."""
    out = []
    for s, brackets in terms:
        idx = []
        for t in brackets:
            b, i = bracket(*t)
            s *= b
            idx.append(i)
        out.append((s, tuple(idx)))
    return tuple(out)


# [xab][xcd] - [xac][xbd] + [xad][xbc] = 0 for any six points, so the three
# products are not all of one sign; and points of one affine chart have no
# positive circuit: [bcd] a - [acd] b + [abd] c - [abc] d = 0 on their
# vectors (x, y, 1), so these four coefficients are not all of one sign
RULES = tuple(
    rule((+1, ((x, a, b), (x, c, d))), (-1, ((x, a, c), (x, b, d))),
         (+1, ((x, a, d), (x, b, c))))
    for x in LABELS
    for a, b, c, d in combinations([y for y in LABELS if y != x], 4)
) + tuple(
    rule((+1, ((b, c, d),)), (-1, ((a, c, d),)), (+1, ((a, b, d),)),
         (-1, ((a, b, c),)))
    for a, b, c, d in combinations(LABELS, 4)
)


def sign_vectors() -> list[tuple]:
    """Every sign vector of the 20 triples, in `TRIPLES` order, that keeps
    all `RULES`: a backtracking search that checks each rule as soon as its
    last triple has a sign."""
    due = [[] for _ in TRIPLES]
    for r in RULES:
        due[max(i for _, idx in r for i in idx)].append(r)
    found = []
    v = [0] * len(TRIPLES)

    def extend(i):
        if i == len(TRIPLES):
            found.append(tuple(v))
            return
        for s in (1, -1):
            v[i] = s
            if all(len({t * math.prod(v[j] for j in idx) for t, idx in r}) == 2
                   for r in due[i]):
                extend(i + 1)

    extend(0)
    return found


def table(v: tuple) -> tuple:
    """The orientation table of a sign vector, as
    `geometry.orientation_table` lays out a configuration's signs."""
    return (*v, *[-s for s in v])


@pytest.fixture(scope="module")
def enumeration():
    """The sign vectors and, for those in pencil order at point 1, each
    one's table and classification."""
    vectors = sign_vectors()
    ordered = []
    for signs in map(table, vectors):
        try:
            cl, _ = _classify_signs(signs)
        except InvalidConfigurationError:
            continue
        ordered.append((signs, cl))
    return vectors, ordered


def test_the_order_types_of_six_points(enumeration):
    vectors, ordered = enumeration
    assert len(vectors) == 11_904
    assert len(ordered) == 496
    kinds = {configuration_kind(cl) for _, cl in ordered}
    assert len(kinds) == 44
    # the samplers' templates cover 28 of the 44 kinds
    assert len(TEMPLATES) == 28 and set(TEMPLATES) <= kinds
    assert Counter(cl.case for _, cl in ordered if cl.is_valid) \
        == {1: 1, 2: 10, 3: 15}


def test_every_excluded_table_has_a_witness(enumeration):
    _, ordered = enumeration
    excluded = [cl for _, cl in ordered if not cl.is_valid]
    assert len(excluded) == 470
    assert all(cl.witness is not None for cl in excluded)
    # 460 witnesses share a side (two labels), 10 share a vertex (one)
    assert Counter(len(cl.witness.shared) for cl in excluded) \
        == {2: 460, 1: 10}
    # only a convex hull in or against pencil order needs a skip pair
    assert Counter(configuration_kind(cl) for cl in excluded
                   if len(cl.witness.shared) == 1) \
        == {"convex-23456": 5, "convex-26543": 5}


def outcome(f, *args):
    """What `f(*args)` returns, or the type and arguments of the
    `KeyError` or `ValueError` it raises."""
    try:
        return f(*args)
    except (KeyError, ValueError) as exc:
        return type(exc).__name__, exc.args


def test_edge_plans_find_the_reference_witness(enumeration):
    # the edge plans find the pair that the search over an orientation
    # closure finds first: on the table that the classifier searched, which
    # is relabelled when the interior fixes a shift, and on the table as
    # given
    _, ordered = enumeration
    excluded = [(signs, cl) for signs, cl in ordered if not cl.is_valid]
    assert len(excluded) == 470
    for signs, cl in excluded:
        searched = _classify_signs(signs)[1]
        assert cl.witness == find_witness_by_closure(searched)
        assert find_witness(signs) == find_witness_by_closure(signs)
    # the search and the hull read only the ten triples of 2..6, the last
    # ten of `TRIPLES`, so these are all the tables without a zero that
    # they can be given, realizable or not.  On each pencil-ordered table
    # the edges of a pair's first triangle alone find the same pair; on 16
    # of these 1,024 they do not.  The hull's plan for 2..6 reads what the
    # hull of any labels reads: the same cycle, or on 730 tables that no
    # points give, the same error; and a zero among the ten raises for the
    # same triple in both
    assert TABLE_KEYS[10:20] == tuple(combinations(range(2, 7), 3))
    found, hulls = Counter(), Counter()
    for v in product((1, -1), repeat=10):
        signs = table((0,) * 10 + v)
        witness = find_witness(signs)
        assert witness == find_witness_by_closure(signs)
        found[witness is not None] += 1
        hull = outcome(_hull_cycle, signs)
        assert hull == outcome(hull_cycle_looped, signs, range(2, 7))
        hulls[hull[0] if isinstance(hull[0], str) else "cycle"] += 1
        for i in range(10):
            zeroed = table((0,) * 10 + v[:i] + (0,) + v[i + 1:])
            error = outcome(_hull_cycle, zeroed)
            assert error == outcome(hull_cycle_looped, zeroed, range(2, 7))
            assert error[0] == "DegeneratePositionError"
    assert found == {True: 1002, False: 22}
    assert hulls == {"cycle": 294, "KeyError": 610, "ValueError": 120}
    # [234] is 0: the first edge of the first pair raises in the search
    # over a closure.  `find_witness` has no such test, since a zero sign
    # stops in the classifier (`test_a_zero_sign_stops_in_the_classifier`)
    with pytest.raises(DegeneratePositionError,
                       match="degenerate principal triangle"):
        find_witness_by_closure(table((0,) * 10 + (0, *[1] * 9)))


def test_principal_triangles_pairwise_share_a_vertex():
    # two 3-arcs of a 5-cycle meet, so no witness pair shares nothing
    assert len(_WITNESS_PAIRS) == 10
    assert all(set(t1) & set(t2) for t1, t2 in _WITNESS_PAIRS)


# C as its two bracket monomials over labels 1..6: it vanishes iff the six
# points lie on one conic
C_FORM = (((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)),
          ((1, 2, 4), (1, 3, 5), (2, 3, 6), (4, 5, 6)))


def relabelled(pi):
    """The binomial form of C with label k read as pi[k - 1]."""
    return tuple(tuple(tuple(pi[k - 1] for k in t) for t in m) for m in C_FORM)


def expand(form) -> dict:
    """A binomial bracket form as an integer polynomial in the coordinates:
    {sorted variable tuple: coefficient}, point k's coordinates being the
    variables 3k - 3, 3k - 2 and 3k - 1."""
    poly = Counter()
    for s, monomial in zip((1, -1), form):
        terms = {(): s}
        for a, b, c in monomial:
            det = {(3 * a - 3 + p[0], 3 * b - 3 + p[1], 3 * c - 3 + p[2]):
                   parity(p) for p in permutations(range(3))}
            expanded = Counter()
            for m, u in terms.items():
                for d, w in det.items():
                    expanded[tuple(sorted(m + d))] += u * w
            terms = expanded
        poly.update(terms)
    return {m: u for m, u in poly.items() if u}


def monomial_sign(signs, monomial) -> int:
    return math.prod(signs[slot(*t)] for t in monomial)


@pytest.fixture(scope="module")
def conic_signs(enumeration):
    """eps per labelling pi used, and per valid table (its table, its case,
    the number of labellings that decide it, the sign of C it fixes).

    pi decides a table when the two monomials of C o pi have strictly
    opposite signs on it; eps is +1 if C o pi = C as integer polynomials,
    -1 if not (the proof below shows that C o pi is then -C)."""
    _, ordered = enumeration
    c = expand(C_FORM)
    eps, rows = {}, []
    for signs, cl in ordered:
        if not cl.is_valid:
            continue
        deciding = [pi for pi in permutations(LABELS)
                    if monomial_sign(signs, relabelled(pi)[0])
                    == -monomial_sign(signs, relabelled(pi)[1])]
        # one already used, if one decides this table too
        pi = next((p for p in deciding if p in eps), deciding[0])
        if pi not in eps:
            eps[pi] = 1 if expand(relabelled(pi)) == c else -1
        rows.append((signs, cl.case, len(deciding),
                     eps[pi] * monomial_sign(signs, relabelled(pi)[0])))
    return eps, rows


def test_conic_sign_is_fixed_by_each_valid_table(conic_signs):
    eps, rows = conic_signs
    c = expand(C_FORM)
    assert len(c) == 720
    # each label occurs twice in each bracket monomial, so a point's
    # representative, (x, y, z) or (-x, -y, -z), does not change a
    # monomial's sign: the chart signs of the table give it
    for monomial in C_FORM:
        assert Counter(k for t in monomial for k in t) == dict.fromkeys(LABELS, 2)
    assert all(n == {1: 480, 2: 384, 3: 288}[case] for _, case, n, _ in rows)
    # per labelling pi that decides a table: C o pi = eps * C as integer
    # polynomials, so the table fixes sign C = eps * sign(C o pi)
    for pi, e in eps.items():
        assert expand(relabelled(pi)) == {m: e * u for m, u in c.items()}, pi
    # four identities decide all 26 tables: C < 0 on 11 and C > 0 on 15
    assert len(eps) == 4
    assert Counter((case, sign) for _, case, _, sign in rows) == {
        (1, -1): 1, (2, -1): 5, (2, 1): 5, (3, -1): 5, (3, 1): 10}


def test_a_valid_table_matches_the_reference_where_c_is_negative(
        conic_signs, monkeypatch):
    # each valid table through the command's own path: the orientation
    # table of any six distinct points is replaced by it
    _, rows = conic_signs
    matches = Counter()
    for signs, case, _, sign in rows:
        monkeypatch.setattr(configurations, "orientation_table",
                            lambda cfg, signs=signs: signs)
        rep = reducible_cubic_sequence(BASE_CONFIGURATIONS[1])
        assert rep.classification.case == case
        assert rep.matches_reference == (sign < 0)
        matches[case, rep.matches_reference] += 1
    assert matches == {(1, True): 1, (2, True): 5, (2, False): 5,
                       (3, True): 5, (3, False): 10}


class CornerRng:
    """Stands in for `random.Random` in `perturb_configuration`: its i-th
    `randint` returns the high end of the range if bit i of `bits` is set,
    the low end if not."""

    def __init__(self, bits: int):
        self.bits, self.calls = bits, 0

    def randint(self, low: int, high: int) -> int:
        bit = self.bits >> self.calls & 1
        self.calls += 1
        return high if bit else low


class ScriptedRng:
    """Stands in for `random.Random` in `perturb_configuration`: its
    `randint` calls return `offsets` in turn, and it keeps the ranges that
    they ask for."""

    def __init__(self, offsets):
        self.offsets, self.ranges = iter(offsets), set()

    def randint(self, low: int, high: int) -> int:
        self.ranges.add((low, high))
        return next(self.offsets)


def flippable(template: dict) -> list:
    """The triples of `template` whose sign some perturbation can change.
    The perturbation draws two offsets per point, in label order, and adds
    each to one affine coordinate; [abc] of affine points is affine in each
    coordinate, so on the box of the offsets of a, b and c its extremes lie
    at the 64 corners."""
    labels = list(template)
    base = orientation_signs(template)
    out = []
    for t in TRIPLES:
        calls = [2 * labels.index(k) + j for k in t for j in (0, 1)]
        for corner in range(64):
            rng = CornerRng(sum((corner >> n & 1) << i
                                for n, i in enumerate(calls)))
            moved = perturb_configuration(template, rng)
            assert rng.calls == 12 and list(moved) == labels
            if chart_orient(*[moved[k] for k in t]) != base[INDEX[t]]:
                out.append(t)
                break
    return out


@pytest.fixture(scope="module")
def flips():
    """The flippable triples of each template, by its kind."""
    return {kind: flippable(cfg) for kind, cfg in TEMPLATES.items()}


@pytest.mark.parametrize("case", [1, 2, 3])
def test_no_perturbation_changes_a_base_template_sign(case, flips):
    # so every sample of `lemma3 --case` has its template's table, and is
    # its template's case with the template's event sequence
    template = BASE_CONFIGURATIONS[case]
    assert list(template) == list(LABELS)
    assert 0 not in orientation_signs(template)
    assert flips[f"case{case}"] == []


def test_only_one_exclusion_template_can_flip_a_sign(flips):
    # the one template whose samples can have a table other than its own
    assert {kind: t for kind, t in flips.items() if t} \
        == {"quadrangle-3654": [(2, 3, 5)]}


OFFSETS = range(-7, 8)


def lifted(p, i: int, j: int) -> tuple:
    """2000 times the affine lift of the chart point `p` moved by (i, j) /
    2000: a positive multiple of the lift of what the perturbation makes
    of `p` when it draws the offsets i and j."""
    x, y, z = chart_rep(p)
    return 2000 * x + i * z, 2000 * y + j * z, 2000 * z


def zero_offsets(template: dict, triple, offsets=OFFSETS) -> list:
    """The offsets in `offsets` of the points a, b, c of `triple` that make
    [abc] 0.  With the four offsets of a and b fixed, [abc] is d + e i + f j
    in the offsets (i, j) of c, so each i takes one division."""
    a, b, c = (template[k] for k in triple)
    z = chart_rep(c)[2]
    c0 = lifted(c, 0, 0)
    out = []
    for ia, ja, ib, jb in product(offsets, repeat=4):
        pa, pb = lifted(a, ia, ja), lifted(b, ib, jb)
        d = det3(pa, pb, c0)
        e = z * (pa[1] * pb[2] - pa[2] * pb[1])
        f = z * (pa[2] * pb[0] - pa[0] * pb[2])
        for ic in offsets:
            r = -(d + e * ic)
            if f:
                jc, rest = divmod(r, f)
                if not rest and jc in offsets:
                    out.append((ia, ja, ib, jb, ic, jc))
            elif not r:
                out += [(ia, ja, ib, jb, ic, jc) for jc in offsets]
    return out


def test_no_perturbation_changes_a_template_kind(flips):
    # the sampler draws each offset from OFFSETS and moves each point to a
    # positive multiple of its lift, so `lifted` gives the sample's signs
    rng = random.Random(0)
    for template in TEMPLATES.values():
        assert list(template) == list(LABELS)
        offsets = [rng.choice(OFFSETS) for _ in range(12)]
        script = ScriptedRng(offsets)
        assert perturb_configuration(template, script) == {
            k: normalize(*lifted(p, *offsets[2 * n:2 * n + 2]))
            for n, (k, p) in enumerate(template.items())}
        assert script.ranges == {(OFFSETS[0], OFFSETS[-1])}
    # the search finds zeros where there are some: three points of the line
    # y = x stay on a line under any common translation
    line = {1: (0, 0, 1), 2: (1, 1, 1), 3: (3, 3, -1)}
    near = range(-2, 3)
    assert {(i, j) * 3 for i, j in product(near, repeat=2)} \
        <= set(zero_offsets(line, (1, 2, 3), near))
    # a sign that no corner changes is not 0 on the box of its offsets, and
    # no offsets make a flippable sign 0; so a sample's table is its
    # template's with some flippable signs negated, and no sign 0
    assert all(zero_offsets(TEMPLATES[kind], t) == []
               for kind, triples in flips.items() for t in triples)
    reached = 0
    for kind, triples in flips.items():
        base = orientation_signs(TEMPLATES[kind])
        for n in range(len(triples) + 1):
            for negated in combinations(triples, n):
                v = tuple(-s if t in negated else s
                          for t, s in zip(TRIPLES, base))
                assert configuration_kind(_classify_signs(table(v))[0]) == kind
                reached += 1
    # the 28 templates' tables, and the one of quadrangle-3654 with [235]
    # negated
    assert reached == 29


def triple_of(s: int) -> frozenset:
    return frozenset(TABLE_KEYS[s])


def test_a_zero_sign_stops_in_the_classifier(enumeration):
    # the pencil order at point 1 reads every [1ab], each as a factor of a
    # turn, so a zero there makes a turn 0 and the classifier raises; the
    # hull reading checks every triple of 2..6 before it reads any
    assert {triple_of(s) for *_, slots in _PENCIL_TURNS for s in slots} \
        == {frozenset((1, a, b)) for a, b in combinations(range(2, 7), 2)}
    _, ordered = enumeration
    for t in TRIPLES:
        zeroed = {slot(*p) for p in permutations(t)}
        error, text = ((InvalidConfigurationError, "pencil") if 1 in t
                       else (DegeneratePositionError, "collinear"))
        for signs, _ in ordered:
            bad = tuple(0 if i in zeroed else s for i, s in enumerate(signs))
            with pytest.raises(error, match=text):
                _classify_signs(bad)
    # so a table that reaches the event order or the witness search has no
    # zero sign, and none of its turns is 0
