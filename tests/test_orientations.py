"""Signed schemes, the two arithmetic identities, and sign-chain imbalances."""

from __future__ import annotations

import itertools
import random

import pytest
import hypothesis as hyp
import hypothesis.strategies as hys

from deepnest.orientations import (
    OrientationParityError,
    SignedEmpties,
    SignedOval,
    SignedScheme,
    chain_imbalance_magnitudes,
    chain_imbalance_set,
    check_orevkov,
    check_rokhlin_mishachev,
    compute_stats,
    parse_signed,
    print_signed,
    rm_rhs,
)
from deepnest.schemes import SchemeSyntaxError

# orientation assignments that pass both identity checks (residual 0 / (0, 0))
BALANCED = [
    "<J + 1_-<3_+ + 9_- + 1_-<10_+ + 4_->>>",
    "<J + 1_+<8_+ + 4_- + 1_+<5_+ + 9_->>>",
    "<J + 1_-<4_+ + 0_- + 1_-<11_+ + 11_->>>",
    "<J + 1_+<4_+ + 0_- + 1_+<9_+ + 13_->>>",
]


def test_signed_roundtrip_on_anchors():
    for text in BALANCED:
        s = parse_signed(text, 9)
        assert print_signed(s) == text
        assert s.oval_count() == 28
        assert s.component_count() == 29


def test_rhs_values():
    assert rm_rhs(9, 29) == 8
    assert rm_rhs(9, 21) == 0
    assert rm_rhs(5, 7) == 0   # M-quintic
    assert rm_rhs(7, 15) == 2  # M-septic


def test_balanced_schemes_have_zero_residuals():
    for text in BALANCED:
        s = parse_signed(text, 9)
        for mode in ("uniform", "literal"):
            assert check_rokhlin_mishachev(s, mode) == 0
        assert check_orevkov(s) == (0, 0)


def test_stats_pinned():
    st = compute_stats(parse_signed(BALANCED[0], 9), "uniform")
    assert (st.all_plus, st.all_minus) == (13, 15)
    assert (st.empty_plus, st.empty_minus) == (13, 13)
    assert (st.pair_plus, st.pair_minus) == (23, 18)
    assert st.pair_table == ((0, 0), (23, 17))
    assert st.nonempty_plus() == 0 and st.nonempty_minus() == 2
    assert st.pairs(-1, 1) == 23 and st.pairs(-1, -1) == 17
    st = compute_stats(parse_signed(BALANCED[1], 9), "literal")
    assert st.pair_table == ((18, 22), (0, 0))


def test_unnested_scheme_misses_by_full_rhs():
    s = parse_signed("<J + 14_+ + 14_->", 9)
    assert check_rokhlin_mishachev(s, "uniform") == -rm_rhs(9, 29)


def test_modes_agree_on_two_oval_nest():
    s = parse_signed("<J + 1_+<1_-<26_+>>>", 9)
    for mode in ("uniform", "literal"):
        st = compute_stats(s, mode)
        assert (st.pair_plus, st.pair_minus) == (27, 26)
        assert check_rokhlin_mishachev(s, mode) == 20


def test_literal_mode_needs_two_oval_chain():
    s = parse_signed("<J + 1_+<27_+>>", 9)
    assert check_rokhlin_mishachev(s, "uniform") == -34
    with pytest.raises(ValueError):
        compute_stats(s, "literal")


@pytest.mark.parametrize("mode", ["bogus", "paper", "Uniform", None])
def test_an_unknown_mode_raises(mode):
    s = parse_signed(BALANCED[0], 9)
    st = compute_stats(s, "uniform")
    message = f"unknown mode {mode!r}"
    with pytest.raises(ValueError) as raised:
        compute_stats(s, mode)
    assert str(raised.value) == message
    for stats in (None, st):
        with pytest.raises(ValueError) as raised:
            check_rokhlin_mishachev(s, mode, stats=stats)
        assert str(raised.value) == message


def random_signed_scheme(rng: random.Random, two_oval_nest: bool):
    def empties() -> SignedEmpties:
        return SignedEmpties(rng.randint(0, 3), rng.randint(0, 3))

    def oval(depth: int) -> SignedOval:
        inner = rng.randint(0, 2) if depth < 4 else 0
        return SignedOval(rng.choice((1, -1)), empties(),
                          tuple(oval(depth + 1) for _ in range(inner)))

    if two_oval_nest:
        inner = SignedOval(rng.choice((1, -1)), empties())
        top = (SignedOval(rng.choice((1, -1)), empties(), (inner,)),)
    else:
        top = tuple(oval(1) for _ in range(rng.randint(0, 2)))
    return SignedScheme(9, rng.random() < 0.5, empties(), top)


def pairwise_stats(s: SignedScheme, mode: str):
    """The census by brute force: list every oval with the non-empty ovals
    enclosing it, then sign each (enclosing oval, inner oval) pair alone."""
    ovals = []      # (sign, the SignedOval or None if empty, enclosing ovals)
    todo = [(None, s.empties, s.ovals, ())]
    while todo:
        node, empties, inside, outer = todo.pop()
        ovals += [(1, None, outer)] * empties.plus
        ovals += [(-1, None, outer)] * empties.minus
        todo += [(o, o.empties, o.ovals, outer + (o,)) for o in inside]
        if node is not None:
            ovals.append((node.sign, node, outer[:-1]))
    key = {}
    if mode == "literal":
        chain = [(outer, o) for _, o, outer in ovals if o]
        if sorted(len(outer) for outer, _ in chain) != [0, 1]:
            raise ValueError("not a two-oval nest")
        a, b = (o for _, o in sorted(chain, key=lambda c: len(c[0])))
        key = {id(a): b.sign, id(b): a.sign}
    pairs = {1: 0, -1: 0}
    table = {(a, b): 0 for a in (1, -1) for b in (1, -1)}
    for sign, node, outer in ovals:
        for anc in outer:
            outer_key = anc.sign if node else key.get(id(anc), anc.sign)
            pairs[-outer_key * sign] += 1
            if node is None:
                table[anc.sign, sign] += 1
    signs = [sign for sign, _, _ in ovals]
    empty = [sign for sign, node, _ in ovals if node is None]
    return (signs.count(1), signs.count(-1), empty.count(1), empty.count(-1),
            pairs[1], pairs[-1],
            ((table[1, 1], table[1, -1]), (table[-1, 1], table[-1, -1])))


@pytest.mark.parametrize("mode", ["uniform", "literal"])
def test_compute_stats_matches_pairwise_count(mode):
    rng = random.Random(14)
    for i in range(400):
        s = random_signed_scheme(rng, two_oval_nest=i % 2 == 0)
        try:
            want = pairwise_stats(s, mode)
        except ValueError:
            with pytest.raises(ValueError):
                compute_stats(s, mode)
            continue
        st = compute_stats(s, mode)
        assert (st.all_plus, st.all_minus, st.empty_plus, st.empty_minus,
                st.pair_plus, st.pair_minus, st.pair_table) == want
        assert s.oval_count() == st.all_plus + st.all_minus


def test_compute_stats_on_a_1501_deep_nest():
    """A 1501-deep nest of + ovals: every nested pair is negative."""
    depth = 1500
    s = parse_signed("<J + " + "1_+<" * depth + "2_-" + ">" * depth + ">",
                     2 * depth + 3)
    st = compute_stats(s)
    assert (st.all_plus, st.all_minus) == (depth, 2)
    assert (st.pair_plus, st.pair_minus) == (2 * depth, depth * (depth - 1) // 2)
    assert st.pair_table == ((0, 2 * depth), (0, 0))


def test_orevkov_rejects_odd_empty_imbalance():
    with pytest.raises(OrientationParityError):
        check_orevkov(parse_signed("<J + 3_+ + 2_->", 9))


def test_parse_signed_rejects_malformed():
    for text in ["<J + 3_?>", "<J + 3>", "<J + 2_+<1_->>",
                 "<J + 1_+<2_+", "1_+", "<J + 07_+>", "<J + 1_-<00_+>>"]:
        with pytest.raises(ValueError):
            parse_signed(text, 9)
    # member order is not significant, so J may come late; a bare 0 is no
    # ovals, as in plain notation
    for text, canonical in [("<3_+ + J>", "<J + 3_+ + 0_->"),
                            ("<0 + 3_+ + J>", "<J + 3_+ + 0_->"),
                            ("<J + 3_+ + 1_-<0 + 0>>", "<J + 3_+ + 1_->")]:
        assert print_signed(parse_signed(text, 9)) == canonical


def test_parse_signed_bounds_nest_depth():
    """Depth 4 is the deepest nest of degree 9; the parser rejects depth 5
    before recursing, however deep the nest goes."""
    s = parse_signed("<J + 1_+<1_-<1_+<1_-<0>>>>>", 9)
    assert s.oval_count() == 4
    assert print_signed(s) == "<J + 1_+<1_-<1_+<0_+ + 1_->>>>"
    for depth in (5, 1500):
        text = "<J + " + "1_+<" * depth + "2_-" + ">" * depth + ">"
        with pytest.raises(SchemeSyntaxError) as exc:
            parse_signed(text, 9)
        assert exc.value.position == len("<J + ") + 4 * len("1_+<")


# --- sign chains -----------------------------------------------------------

def reference_imbalances(n, max_jumps, parity, closed):
    """Enumerate all 2^n sign words and tally admissible imbalances."""
    if n == 0:
        return frozenset() if parity == "odd" else frozenset([0])
    out = set()
    for signs in itertools.product((1, -1), repeat=n):
        links = list(zip(signs, signs[1:]))
        if closed:
            links.append((signs[-1], signs[0]))
        jumps = sum(a == b for a, b in links)
        if jumps > max_jumps:
            continue
        if parity == "odd" and jumps % 2 == 0:
            continue
        if parity == "even" and jumps % 2 == 1:
            continue
        out.add(sum(signs))
    return frozenset(out)


def test_chain_imbalances_match_enumeration():
    for n in range(10):
        for max_jumps in range(4):
            for parity in (None, "odd", "even"):
                for closed in (False, True):
                    got = chain_imbalance_set(n, max_jumps, parity, closed)
                    want = reference_imbalances(n, max_jumps, parity, closed)
                    assert got == want, (n, max_jumps, parity, closed)


@hyp.settings(max_examples=60, deadline=None)
@hyp.given(hys.integers(1, 11), hys.integers(0, 5),
           hys.sampled_from([None, "odd", "even"]), hys.booleans())
def test_chain_imbalances_property(n, max_jumps, parity, closed):
    got = chain_imbalance_set(n, max_jumps, parity, closed)
    assert got == reference_imbalances(n, max_jumps, parity, closed)
    # every imbalance has the parity of the length
    assert all((v - n) % 2 == 0 for v in got)


def test_closed_single_link_is_a_jump():
    assert chain_imbalance_set(1, 0, None, True) == frozenset()
    assert chain_imbalance_set(1, 1, None, True) == frozenset([-1, 1])


def test_magnitude_table_for_deep_nest_medians():
    # odd jump budget 3, open chains: the generic per-length magnitudes
    table = {n: sorted(chain_imbalance_magnitudes(n, 3, "odd"))
             for n in range(2, 8)}
    assert table[2] == [2]   # a 1-link chain admits exactly one (odd) jump
    assert table[3] == [1]
    assert table[4] == [0, 2, 4]
    assert table[5] == [1, 3]
    assert table[6] == [0, 2, 4]
    assert table[7] == [1, 3]


def test_chain_argument_validation():
    with pytest.raises(ValueError):
        chain_imbalance_set(-1, 2)
    with pytest.raises(ValueError):
        chain_imbalance_set(3, -1)
    with pytest.raises(ValueError):
        chain_imbalance_set(3, 2, "sideways")
