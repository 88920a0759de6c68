"""Signed schemes, the two arithmetic identities, and sign-chain imbalances."""

from __future__ import annotations

import itertools

import pytest
import hypothesis as hyp
import hypothesis.strategies as hys

from deepnest.orientations import (
    OrientationParityError,
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


def test_orevkov_rejects_odd_empty_imbalance():
    with pytest.raises(OrientationParityError):
        check_orevkov(parse_signed("<J + 3_+ + 2_->", 9))


def test_parse_signed_rejects_malformed():
    for text in ["<J + 3_?>", "<J + 3>", "<J + 2_+<1_->>",
                 "<J + 1_+<2_+", "1_+"]:
        with pytest.raises(ValueError):
            parse_signed(text, 9)
    # member order is not significant, so J may come late
    assert print_signed(parse_signed("<3_+ + J>", 9)) == "<J + 3_+ + 0_->"


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
