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
  triangle-pair witness;
* on each valid table C = [123][145][246][356] - [124][135][236][456] is
  nonzero, with a sign fixed by the table;
* no perturbation the sampler makes changes a sign of a base template, so
  every sample of `lemma3 --case k` has its template's table;
* a table with a zero sign stops in the classifier, before the event order
  or the witness search reads it.

So `conics.conic_pencil_events` needs no conic test and meets no zero turn,
`configurations._contradiction` always finds a witness, and `lemma3 --case`
classifies its template once.  Every integer here is exact.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations, permutations

import pytest

from deepnest.configurations import (
    BASE_CONFIGURATIONS,
    EXCLUSION_TEMPLATES,
    InvalidConfigurationError,
    _PENCIL_TURNS,
    _WITNESS_PAIRS,
    _classify_signs,
    configuration_kind,
    perturb_configuration,
)
from deepnest.geometry import (
    DegeneratePositionError,
    _table_getter,
    orientation_signs,
    slot,
)

LABELS = (1, 2, 3, 4, 5, 6)
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
    """The flat orientation table of a sign vector, as
    `geometry.orientation_table` spreads a configuration's signs."""
    return _table_getter(LABELS)((*v, *[-s for s in v], 0))


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
    assert len({configuration_kind(cl) for _, cl in ordered}) == 44
    assert Counter(cl.case for _, cl in ordered if cl.is_valid) \
        == {1: 1, 2: 10, 3: 15}


def test_every_excluded_table_has_a_witness(enumeration):
    _, ordered = enumeration
    excluded = [cl for _, cl in ordered if not cl.is_valid]
    assert len(excluded) == 470
    assert all(cl.witness is not None for cl in excluded)
    assert Counter(cl.witness.kind for cl in excluded) \
        == {"segment": 460, "vertex": 10}
    # only a convex hull in or against pencil order needs a skip pair
    assert Counter(configuration_kind(cl) for cl in excluded
                   if cl.witness.kind == "vertex") \
        == {"convex-23456": 5, "convex-26543": 5}


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
            product = Counter()
            for m, u in terms.items():
                for d, w in det.items():
                    product[tuple(sorted(m + d))] += u * w
            terms = product
        poly.update(terms)
    return {m: u for m, u in poly.items() if u}


def monomial_sign(signs, monomial) -> int:
    return math.prod(signs[slot(*t)] for t in monomial)


def test_conic_sign_is_fixed_by_each_valid_table(enumeration):
    _, ordered = enumeration
    valid = [(signs, cl.case) for signs, cl in ordered if cl.is_valid]
    c = expand(C_FORM)
    assert len(c) == 720
    # each label occurs twice in each bracket monomial, so a point's
    # representative, (x, y, z) or (-x, -y, -z), does not change a
    # monomial's sign: the chart signs of the table give it
    for monomial in C_FORM:
        assert Counter(k for t in monomial for k in t) == dict.fromkeys(LABELS, 2)
    # per labelling pi that decides a table: C o pi = eps * C as integer
    # polynomials, eps = +-1, so the table fixes sign C = eps * sign(C o pi)
    eps = {}
    conic_signs = Counter()
    for signs, case in valid:
        # the labellings whose two monomials have strictly opposite signs:
        # one decides the sign of C o pi, hence of C
        deciding = [pi for pi in permutations(LABELS)
                    if monomial_sign(signs, relabelled(pi)[0])
                    == -monomial_sign(signs, relabelled(pi)[1])]
        assert len(deciding) == {1: 480, 2: 384, 3: 288}[case]
        # one already proved, if one decides this table too
        pi = next((p for p in deciding if p in eps), deciding[0])
        if pi not in eps:
            form = expand(relabelled(pi))
            eps[pi] = 1 if form == c else -1
            assert form == {m: eps[pi] * u for m, u in c.items()}, pi
        conic_signs[case, eps[pi] * monomial_sign(signs, relabelled(pi)[0])] += 1
    # four identities decide all 26 tables: C < 0 on 11 and C > 0 on 15
    assert len(eps) == 4
    assert conic_signs == {(1, -1): 1, (2, -1): 5, (2, 1): 5, (3, -1): 5,
                           (3, 1): 10}


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
            if orientation_signs(moved)[INDEX[t]] != base[INDEX[t]]:
                out.append(t)
                break
    return out


@pytest.mark.parametrize("case", [1, 2, 3])
def test_no_perturbation_changes_a_base_template_sign(case):
    # so every sample of `lemma3 --case` has its template's table, and is
    # its template's case with the template's event sequence
    template = BASE_CONFIGURATIONS[case]
    assert list(template) == list(LABELS)
    assert 0 not in orientation_signs(template)
    assert flippable(template) == []


def test_only_one_exclusion_template_can_flip_a_sign():
    # where the sampler can fall back to its template
    flips = {kind: flippable(cfg) for kind, cfg in EXCLUSION_TEMPLATES.items()}
    assert {kind: t for kind, t in flips.items() if t} \
        == {"quadrangle-3654": [(2, 3, 5)]}


def triple_of(s: int) -> frozenset:
    return frozenset((s // 49, s // 7 % 7, s % 7))


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
