"""Scenario case analysis for the depth-3 nest of the 28-oval degree-9 curve."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

from chart import prohibit_per_call
from test_census_oracle import census, n_domain
from deepnest import cases
from deepnest.cases import (
    BETA_ZERO,
    InfeasibleOrientationError,
    NO_JUMPS_EVEN_GAMMA,
    NO_JUMPS_ODD_GAMMA,
    SCENARIO_KINDS,
    Scenario,
    SignCase,
    TOTAL_EMPTIES,
    TheoremOneRow,
    TheoremTwoRow,
    WITH_O1_JUMPS,
    _no_jump_magnitudes,
    _parity_class,
    _prohibit,
    _solve_scenario,
    beta_zero_contradiction,
    deep_nest_scheme,
    emit_complex_scheme,
    make_scenario,
    orevkov_case_residuals,
    orevkov_filter,
    prohibit,
    rm_case_residual,
    solve_scenario,
    theorem1_report,
    theorem2_report,
)
from deepnest.orientations import (
    OrientationParityError,
    chain_imbalance_magnitudes,
    check_orevkov,
    check_rokhlin_mishachev,
    print_signed,
)
from deepnest.schemes import parse_scheme, print_scheme

JUMP_SOLUTIONS = {
    "literal": {(-1, -1, 1, 6), (-1, 1, 1, 3), (1, -1, -1, 3), (1, 1, -1, 4)},
    "uniform": {(-1, -1, 1, 6), (1, 1, -1, 4), (1, -1, 1, 3), (-1, 1, -1, 3)},
}
JUMP_SURVIVORS = {(-1, -1, 1, 6), (1, 1, -1, 4)}

EVEN_GAMMA_SOLUTIONS = {
    "literal": {(-1, -1, 1, 4), (1, -1, 1, 2)},
    "uniform": {(-1, -1, 1, 4), (-1, 1, 1, 2)},
}
EVEN_GAMMA_SURVIVOR = (-1, -1, 1, 4)


def tuples(cases):
    return {c.as_tuple() for c in cases}


@pytest.mark.parametrize("mode", ["uniform", "literal"])
def test_jump_scenario_solutions(mode):
    sc = Scenario(WITH_O1_JUMPS)  # median parity left open
    sols = solve_scenario(sc, mode)
    assert tuples(sols) == JUMP_SOLUTIONS[mode]
    assert tuples(orevkov_filter(sols)) == JUMP_SURVIVORS


@pytest.mark.parametrize("mode", ["uniform", "literal"])
def test_no_jump_scenarios(mode):
    even = solve_scenario(Scenario(NO_JUMPS_EVEN_GAMMA, parity=0), mode)
    assert tuples(even) == EVEN_GAMMA_SOLUTIONS[mode]
    assert tuples(orevkov_filter(even)) == {EVEN_GAMMA_SURVIVOR}
    odd = solve_scenario(Scenario(NO_JUMPS_ODD_GAMMA, parity=1), mode)
    assert odd == []


def test_survivors_do_not_depend_on_pairing_mode():
    for kind, parity in [(WITH_O1_JUMPS, 0), (WITH_O1_JUMPS, 1),
                         (NO_JUMPS_EVEN_GAMMA, 0), (NO_JUMPS_ODD_GAMMA, 1)]:
        sc = Scenario(kind, parity=parity)
        survivors = {
            mode: tuples(orevkov_filter(solve_scenario(sc, mode)))
            for mode in ("uniform", "literal")
        }
        assert survivors["uniform"] == survivors["literal"]


def test_case_residuals_vanish_on_solutions():
    sc = Scenario(WITH_O1_JUMPS)
    for mode in ("uniform", "literal"):
        for case in solve_scenario(sc, mode):
            assert rm_case_residual(case, mode) == 0
    for case in orevkov_filter(solve_scenario(sc, "uniform")):
        assert orevkov_case_residuals(case) == (0, 0)


def test_case_residuals_refuse_an_odd_empty_imbalance():
    # no concrete scheme has an odd empty-oval imbalance, so the pair-table
    # residuals of such a census are undefined and the filter drops it
    case = SignCase(NO_JUMPS_ODD_GAMMA, 1, 1, 1, 2, eps4=1)
    assert case.imbalances() == (2, 1)
    with pytest.raises(OrientationParityError, match="must be even, got 3"):
        orevkov_case_residuals(case)
    assert orevkov_filter([case]) == []


def test_only_beta_zero_has_an_identity_flat_in_n():
    # the one linear solve of `_solve_scenario`: every sign pattern it tries
    # has a nonzero slope in n, except beta-zero's, whose one candidate is
    # then n = 0
    patterns = 0
    for kind, mode in product(SCENARIO_KINDS, ("uniform", "literal")):
        _, eps3_values, eps4_values, _, _ = cases._SHAPES[kind]
        for e1, e2, e3, e4 in product((1, -1), (1, -1), eps3_values,
                                      eps4_values):
            at = [rm_case_residual(SignCase(kind, e1, e2, e3, n, e4), mode)
                  for n in range(TOTAL_EMPTIES + 1)]
            slope = at[1] - at[0]
            assert at == [at[0] + n * slope for n in range(len(at))]
            assert (slope == 0) == (kind == BETA_ZERO)
            patterns += 1
    assert patterns == 2 * (8 + 8 + 16 + 4)


@pytest.mark.parametrize("mode", ["uniform", "literal"])
def test_each_odd_gamma_pattern_has_its_census_residual_and_slope(mode):
    """The 16 sign patterns that the solver reads for no-jumps-odd-gamma
    from `_SHAPES` are (e1, e2, e3, e4) in {1, -1}^4, and each has the
    residual at n = 0 and the slope in n of the census formula of
    `tests/test_census_oracle.py` with median imbalance n e3 and inner
    imbalance e4.  That is why the kind has no solution: each pattern's
    root n is negative, fractional, or 5, 7 or 11, where a chain with at
    most 3 jumps has imbalance 1 or 3."""
    _, eps3_values, eps4_values, _, _ = cases._SHAPES[NO_JUMPS_ODD_GAMMA]
    solver = {}
    for e1, e2, e3, e4 in product((1, -1), (1, -1), eps3_values,
                                  eps4_values):
        at0, at1 = (rm_case_residual(
            SignCase(NO_JUMPS_ODD_GAMMA, e1, e2, e3, n, e4), mode)
            for n in (0, 1))
        solver[e1, e2, e3, e4] = at0, at1 - at0
    ovals = TOTAL_EMPTIES + 2
    pinned = {}
    for e1, e2, e3, e4 in product((1, -1), repeat=4):
        at0 = census(e1, e2, 0, e4, ovals, mode)[0]
        pinned[e1, e2, e3, e4] = (
            at0, census(e1, e2, e3, e4, ovals, mode)[0] - at0)
    assert solver == pinned
    assert n_domain(NO_JUMPS_ODD_GAMMA, 1, False) == (1, 3)
    for at0, slope in pinned.values():
        n, rem = divmod(-at0, slope)
        assert rem or n < 0 or n in (5, 7, 11)


def test_scenario_validation():
    with pytest.raises(ValueError):
        make_scenario(WITH_O1_JUMPS, beta=3, gamma=20)  # sizes must total 26
    with pytest.raises(ValueError):
        make_scenario(NO_JUMPS_EVEN_GAMMA, beta=3, gamma=23)  # inner count odd
    with pytest.raises(ValueError):
        Scenario(WITH_O1_JUMPS, beta=4, parity=1)     # parity contradicts size
    with pytest.raises(ValueError):
        Scenario("imaginary-case")
    sc = make_scenario(NO_JUMPS_ODD_GAMMA, beta=3)
    assert (sc.beta, sc.gamma) == (3, 23)


@pytest.mark.parametrize("kind, fields", [
    (NO_JUMPS_EVEN_GAMMA, {"beta": 1}),   # gamma = 25 is odd
    (NO_JUMPS_ODD_GAMMA, {"beta": 4}),    # gamma = 22 is even
    (NO_JUMPS_ODD_GAMMA, {"parity": 0}),
    (BETA_ZERO, {"parity": 1}),
])
def test_scenario_rejects_a_parity_its_kind_contradicts(kind, fields):
    with pytest.raises(ValueError):
        Scenario(kind, **fields)


def test_scenario_fills_in_what_its_kind_fixes():
    assert Scenario(NO_JUMPS_EVEN_GAMMA) == Scenario(NO_JUMPS_EVEN_GAMMA,
                                                     parity=0)
    assert Scenario(NO_JUMPS_ODD_GAMMA).parity == 1
    assert Scenario(BETA_ZERO) == Scenario(BETA_ZERO, beta=0, parity=0)
    assert Scenario(BETA_ZERO).gamma == 26
    assert Scenario(WITH_O1_JUMPS, beta=5).parity == 1
    assert Scenario(WITH_O1_JUMPS).parity is None
    assert Scenario(WITH_O1_JUMPS, parity=0).gamma is None


def test_make_scenario_reads_gamma_as_beta():
    sized = make_scenario(NO_JUMPS_EVEN_GAMMA, gamma=24)
    assert sized == Scenario(NO_JUMPS_EVEN_GAMMA, beta=2)
    assert hash(sized) == hash(Scenario(NO_JUMPS_EVEN_GAMMA, beta=2))
    # beta = 2 admits only the n = 2 case, not the open size's n = 4
    assert {c.n for c in solve_scenario(sized)} == {2}


@pytest.mark.parametrize("fields", [
    {"parity": 7}, {"parity": -1},
    {"parity": True}, {"parity": False}, {"parity": 1.0}, {"parity": "1"},
    {"beta": -1}, {"beta": 27}, {"beta": 1000},
    {"gamma": -3}, {"gamma": 27},
])
def test_scenario_rejects_sizes_and_parities_out_of_domain(fields):
    build = make_scenario if "gamma" in fields else Scenario
    with pytest.raises(ValueError):
        build(WITH_O1_JUMPS, **fields)


@pytest.mark.parametrize("size", [12.0, True, "12", Fraction(12)])
def test_sizes_must_be_integers(size):
    for build, fields in ((Scenario, {"beta": size}),
                          (make_scenario, {"beta": size}),
                          (make_scenario, {"gamma": size})):
        with pytest.raises(ValueError):
            build(WITH_O1_JUMPS, **fields)
    with pytest.raises(ValueError):
        theorem2_report(size)
    with pytest.raises(ValueError):
        theorem2_report(12, size)


def test_make_and_replace_validate_as_the_constructor_does():
    sized = Scenario(WITH_O1_JUMPS, beta=5)
    with pytest.raises(ValueError):
        sized._replace(beta=4)          # parity 1 contradicts beta = 4
    with pytest.raises(ValueError):
        Scenario._make((NO_JUMPS_EVEN_GAMMA, 1, None))   # gamma = 25
    assert Scenario._make((BETA_ZERO, None, None)) == Scenario(BETA_ZERO)
    moved = sized._replace(beta=7)
    assert type(moved) is Scenario and moved == Scenario(WITH_O1_JUMPS, beta=7)


@pytest.mark.parametrize("scenario", [
    (BETA_ZERO, 0, 0),           # equal to the cached Scenario(BETA_ZERO)
    (WITH_O1_JUMPS, 3, 1),       # equal to no cached key
    [BETA_ZERO, 0, 0],
    BETA_ZERO,
])
def test_solve_scenario_takes_only_a_scenario(scenario):
    solve_scenario(Scenario(BETA_ZERO))
    with pytest.raises(TypeError):
        solve_scenario(scenario)


def all_scenarios():
    """Every field combination Scenario accepts, equal ones included."""
    sizes = (None, *range(TOTAL_EMPTIES + 1))
    for kind, beta, parity in product(SCENARIO_KINDS, sizes, (None, 0, 1)):
        try:
            yield Scenario(kind, beta, parity)
        except ValueError:
            continue


def test_scenario_domain_has_sixty_values():
    accepted = list(all_scenarios())
    assert len(set(accepted)) == 60
    kind_parity = {NO_JUMPS_EVEN_GAMMA: 0, NO_JUMPS_ODD_GAMMA: 1,
                   BETA_ZERO: 0}
    for scn in accepted:   # no value contradicts itself or its kind
        assert scn.beta is None or scn.parity == scn.beta % 2
        assert scn.parity == kind_parity.get(scn.kind, scn.parity)
        assert scn.kind != BETA_ZERO or scn.beta == 0
        assert scn.gamma == (None if scn.beta is None else 26 - scn.beta)


def zero_residual_cases(kind, mode):
    """Every sign pattern of the kind with every n in 0..26, kept when the
    signed-pair identity holds, in solver order."""
    eps3_values = (None,) if kind == BETA_ZERO else (1, -1)
    eps4_values = (1, -1) if kind == NO_JUMPS_ODD_GAMMA else (None,)
    cases = [SignCase(kind, e1, e2, e3, n, e4)
             for e1, e2, e3, e4 in product((1, -1), (1, -1), eps3_values,
                                           eps4_values)
             for n in range(TOTAL_EMPTIES + 1)]
    return sorted((c for c in cases if rm_case_residual(c, mode) == 0),
                  key=SignCase.sort_key)


def test_solver_matches_brute_force_over_whole_domain():
    keys = [(scn, mode) for scn in all_scenarios()
            for mode in ("uniform", "literal")]
    scans = {(kind, mode): zero_residual_cases(kind, mode)
             for kind in SCENARIO_KINDS for mode in ("uniform", "literal")}
    for scn, mode in keys:
        expected = [c for c in scans[scn.kind, mode] if scn.admits_n(c.n)]
        first = solve_scenario(scn, mode)
        assert first == expected, (scn, mode)
        first.append(None)   # a caller's list is its own
        assert solve_scenario(scn, mode) == expected, (scn, mode)
    # every key of the finite domain is cached, and nothing else is: the
    # 60 scenarios in two modes
    assert _solve_scenario.cache_info().currsize == len(set(keys)) == 120


def test_no_jump_domains_are_derived_from_the_chain():
    assert _no_jump_magnitudes(TOTAL_EMPTIES) == {0, 2, 4}
    assert _no_jump_magnitudes(TOTAL_EMPTIES - 1) == {1, 3}
    # the open-size domains cover every concrete chain of the same parity
    for beta in range(TOTAL_EMPTIES + 1):
        domain = _no_jump_magnitudes(TOTAL_EMPTIES - beta % 2)
        assert chain_imbalance_magnitudes(beta, 3, "odd") <= domain


def test_admits_n_budgets():
    jump = Scenario(WITH_O1_JUMPS, parity=0)
    assert not jump.admits_n(0)       # at least one jump by definition
    assert jump.admits_n(2) and jump.admits_n(26)
    assert not jump.admits_n(3)       # parity mismatch
    no_jump = Scenario(NO_JUMPS_EVEN_GAMMA, parity=0)
    assert no_jump.admits_n(0) and no_jump.admits_n(4)
    assert not no_jump.admits_n(6)    # beyond the three-jump chain budget
    sized = Scenario(NO_JUMPS_EVEN_GAMMA, beta=2)
    # a two-oval chain with an odd jump budget realizes only imbalance 2
    assert sized.admits_n(2)
    assert not sized.admits_n(0) and not sized.admits_n(4)
    zero = Scenario(BETA_ZERO, beta=0)
    assert zero.admits_n(0) and not zero.admits_n(1)


# --- emission --------------------------------------------------------------

def emit_text(tup, beta, scenario=WITH_O1_JUMPS, eps4=None):
    case = SignCase(scenario, *tup[:3], tup[3], eps4)
    return print_signed(emit_complex_scheme(case, beta))


def test_emitted_schemes_for_twelve_medians():
    assert emit_text((-1, -1, 1, 6), 12) == \
        "<J + 1_-<3_+ + 9_- + 1_-<10_+ + 4_->>>"
    assert emit_text((1, 1, -1, 4), 12) == \
        "<J + 1_+<8_+ + 4_- + 1_+<5_+ + 9_->>>"


def test_emitted_schemes_for_four_medians():
    assert emit_text((1, 1, -1, 4), 4) == \
        "<J + 1_+<4_+ + 0_- + 1_+<9_+ + 13_->>>"
    case = SignCase(NO_JUMPS_EVEN_GAMMA, -1, -1, 1, 4)
    assert print_signed(emit_complex_scheme(case, 4)) == \
        "<J + 1_-<4_+ + 0_- + 1_-<11_+ + 11_->>>"


def test_emitted_schemes_pass_full_checks():
    for beta in (4, 6, 8, 10, 12):
        for tup in JUMP_SURVIVORS:
            if tup[3] > min(beta, 26 - beta):
                continue
            s = emit_complex_scheme(SignCase(WITH_O1_JUMPS, *tup), beta)
            for mode in ("uniform", "literal"):
                assert check_rokhlin_mishachev(s, mode) == 0
            assert check_orevkov(s) == (0, 0)


def test_emission_rejects_out_of_range():
    with pytest.raises(InfeasibleOrientationError):
        emit_text((-1, -1, 1, 6), 4)   # needs six jumps, only four medians
    with pytest.raises(InfeasibleOrientationError):
        emit_text((-1, -1, 1, 6), 13)  # odd sizes cannot split the imbalance
    with pytest.raises(InfeasibleOrientationError):
        emit_complex_scheme(SignCase(NO_JUMPS_EVEN_GAMMA, -1, -1, 1, 4), 2)


def test_emission_refuses_what_no_solution_asks_for():
    # no command emits these cases: no solution has an odd empty-oval
    # imbalance, and beta-zero's one candidate n = 0 never solves; library
    # input reaches them, so the wrong-parity raise and beta-zero's n-domain
    # stay
    with pytest.raises(InfeasibleOrientationError,
                       match="imbalance 0 has the wrong parity for 23 ovals"):
        emit_complex_scheme(SignCase(NO_JUMPS_ODD_GAMMA, 1, 1, 1, 1), 3)
    zero = SignCase(BETA_ZERO, 1, -1, None, 0)
    assert print_signed(emit_complex_scheme(zero, 0)) == \
        "<J + 1_+<1_-<13_+ + 13_->>>"
    with pytest.raises(InfeasibleOrientationError,
                       match="n=1 is not admissible at beta=0"):
        emit_complex_scheme(zero._replace(n=1), 0)


def test_with_o1_jumps_emission_fits_exactly_the_available_ovals():
    """Every with-o1-jumps sign case at every beta: the case is emitted
    exactly when n has beta's parity and 1 <= n <= min(beta, gamma), and a
    case with n > min(beta, gamma) raises."""
    accepted = set()
    for signs, n, beta in product(product((1, -1), repeat=3), range(28),
                                  range(27)):
        case = SignCase(WITH_O1_JUMPS, *signs, n)
        try:
            s = emit_complex_scheme(case, beta)
        except InfeasibleOrientationError as exc:
            if n >= 1 and n % 2 == beta % 2:    # admissible, yet too large
                assert "does not fit in" in str(exc)
            continue
        assert n <= min(beta, 26 - beta)
        (outer,) = s.ovals
        assert sum(outer.empties) == beta
        assert sum(outer.ovals[0].empties) == 26 - beta
        accepted.add((case, beta))
    assert accepted == {
        (SignCase(WITH_O1_JUMPS, *signs, n), beta)
        for signs in product((1, -1), repeat=3) for beta in range(27)
        for n in range(1, min(beta, 26 - beta) + 1) if n % 2 == beta % 2}
    assert len(accepted) == 8 * 91


# --- headline reports ------------------------------------------------------

def test_odd_median_counts_are_prohibited():
    for beta in (1, 3, 9, 25):
        report = prohibit(deep_nest_scheme(beta), known=(1, 3, 25))
        assert report.verdict == "PROHIBITED"
        assert report.new is (beta not in (1, 3, 25))
        assert all(not r.survivors for r in report.results)
        assert report.feasible == ()


def test_even_median_counts_stay_open():
    report = prohibit(deep_nest_scheme(12))
    assert report.verdict == "OPEN"
    assert report.new is None
    assert not report.real_scheme_forbidden
    assert {f.case.as_tuple()[:4] for f in report.feasible} >= JUMP_SURVIVORS
    for f in report.feasible:
        assert f.rm_residual == 0 and f.orevkov_residuals == (0, 0)


def test_two_medians_open_but_unrealizable():
    report = prohibit(deep_nest_scheme(2))
    assert report.verdict == "OPEN"
    assert report.real_scheme_forbidden
    assert report.feasible == ()


def test_prohibit_validates_input():
    with pytest.raises(ValueError):
        prohibit(parse_scheme("<J + 27>", 9))          # not an M-curve
    with pytest.raises(ValueError):
        prohibit(parse_scheme("<J + 28>", 9))          # no depth-3 nest
    with pytest.raises(ValueError):
        prohibit(parse_scheme("<J + 2 + 1<2 + 1<22>>>", 9))  # outer ovals


def test_theorem1_rows():
    rows = theorem1_report()
    assert len(rows) == 13
    assert [r.beta for r in rows] == list(range(1, 26, 2))
    assert all(r.verdict == "PROHIBITED" for r in rows)
    assert sum(r.new for r in rows) == 10
    assert {r.beta for r in rows if not r.new} == {1, 3, 25}
    assert all(r.beta + r.gamma == 26 for r in rows)


def test_theorem2_rows():
    row = theorem2_report(12)
    texts = {f.scheme for f in row.schemes}
    assert "<J + 1_-<3_+ + 9_- + 1_-<10_+ + 4_->>>" in texts
    assert "<J + 1_+<8_+ + 4_- + 1_+<5_+ + 9_->>>" in texts
    assert all(f.rm_residual == 0 for f in row.schemes)
    assert all(f.orevkov_residuals == (0, 0) for f in row.schemes)
    row4 = theorem2_report(4)
    assert any(c.n == 6 for c in row4.skipped)    # six jumps need beta >= 6
    assert {f.scheme for f in row4.schemes} >= {
        "<J + 1_-<4_+ + 0_- + 1_-<11_+ + 11_->>>",
        "<J + 1_+<4_+ + 0_- + 1_+<9_+ + 13_->>>",
    }
    with pytest.raises(ValueError):
        theorem2_report(3)


def theorem1_via_text(known):
    rows = []
    for beta in range(1, 26, 2):
        rep = prohibit(deep_nest_scheme(beta), known)
        rows.append(TheoremOneRow(
            beta, 26 - beta, rep.verdict, bool(rep.new),
            sum(len(r.solutions) for r in rep.results)))
    return rows


@pytest.mark.parametrize("known", [(), (1, 3, 25), (5, 7), tuple(range(27))])
def test_theorem1_table_matches_the_text_path(known):
    assert theorem1_report(known) == theorem1_via_text(known)


@pytest.mark.parametrize("beta", range(0, 25, 2))
def test_theorem2_table_matches_the_text_path(beta):
    rep = prohibit(deep_nest_scheme(beta))
    skipped = tuple(c for r in rep.results for c in r.survivors
                    if not any(f.case == c for f in rep.feasible))
    assert theorem2_report(beta) == TheoremTwoRow(
        beta, 26 - beta, rep.feasible, skipped)


@pytest.mark.parametrize("mode", ["uniform", "literal"])
def test_size_core_matches_the_text_path(mode):
    for beta in range(26):
        text = f"<J + 1<{beta} + 1<{26 - beta}>>>"
        assert (_prohibit(beta, 26 - beta, (), mode)
                == prohibit(parse_scheme(text, 9), (), mode))


def test_parity_class_memo_matches_the_per_call_path():
    _parity_class.cache_clear()
    for beta, mode in product(range(26), ("uniform", "literal")):
        knowns = ((), (beta,), range(27))
        reports = [_prohibit(beta, 26 - beta, known, mode) for known in knowns]
        for known, rep in zip(knowns, reports):
            assert rep == prohibit_per_call(beta, 26 - beta, known, mode)
        # known sets only `new`
        assert len({rep._replace(new=None) for rep in reports}) == 1
        assert [rep.new for rep in reports] == (
            [True, False, False] if reports[0].verdict == "PROHIBITED"
            else [None] * 3)
    # one entry per parity class (beta = 0, odd, even >= 2) and mode
    assert _parity_class.cache_info().currsize == 6
    for bad in (lambda: _prohibit(3, 23, (), "bogus"),
                lambda: prohibit(deep_nest_scheme(0), (), "bogus")):
        with pytest.raises(ValueError, match="unknown mode"):
            bad()
    assert _parity_class.cache_info().currsize == 6
    # a caller's solver list is its own, on a memo hit and on a miss
    before = _prohibit(4, 22, (), "uniform")
    for result in before.results:
        solve_scenario(result.scenario).append(result.solutions[0])
    assert _prohibit(4, 22, (), "uniform") == before
    _parity_class.cache_clear()
    assert _prohibit(4, 22, (), "uniform") == before


def test_each_parity_class_is_filtered_once(monkeypatch):
    calls = []

    def counted(sols):
        calls.append(sols)
        return orevkov_filter(sols)

    monkeypatch.setattr(cases, "orevkov_filter", counted)
    _parity_class.cache_clear()
    theorem1_report()
    # with-o1-jumps and no-jumps-odd-gamma
    assert len(calls) == 2
    theorem1_report()
    assert len(calls) == 2
    for beta in range(0, 26, 2):
        theorem2_report(beta)
    for beta in range(26):
        prohibit(deep_nest_scheme(beta))
    # beta-zero; with-o1-jumps and no-jumps-even-gamma
    assert len(calls) == 2 + 1 + 2


def test_prohibit_reports_the_canonical_spelling():
    for beta in range(26):
        scheme = deep_nest_scheme(beta)
        for mode in ("uniform", "literal"):
            assert prohibit(scheme, (), mode).scheme == print_scheme(scheme)
    assert print_scheme(deep_nest_scheme(0)) == "<J + 1<1<26>>>"


def test_beta_zero_report():
    rep = beta_zero_contradiction()
    assert set(rep.lhs_values) == {-4, 0, 2}
    assert rep.max_abs_lhs == 4
    assert rep.rhs == 8
    assert rep.contradiction
    assert rep.comparison_components == 21
    assert rep.comparison_rhs == 0
    assert not rep.comparison_contradiction
