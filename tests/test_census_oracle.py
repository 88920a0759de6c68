"""Theorem 1 from the concrete census: every signed deep nest of degree 9,

    <J + 1_e1<m+_+ + m-_- + 1_e2<i+_+ + i-_->>>

with m+ + m- = beta medians and i+ + i- = 26 - beta inners, is read
through `orientations` (never through `cases`), and the verdicts of
`prohibit` are checked against what the census allows.

A census scheme *fits a scenario* when it passes both identities and its
(median, inner) imbalances have one of the scenario shapes of beta's parity
class: (-n e3, n e3) with O1-jumps, (n e3, 0) or (n e3, e4) without, and
(0, 0) at beta = 0, for an n in the scenario's domain.  With the domain for
any size of beta's parity class (beta = 0, odd, even >= 2), the verdict is
PROHIBITED exactly when no census scheme of any size in the class fits; with
the domain at this beta (and n <= min(beta, gamma) for O1-jumps), the fits
are exactly the schemes that `prohibit` lists as `feasible`.

The closed-form census and the chain magnitudes of a no-jump median chain
are the benchmark's independent oracle, `perfbench/oracle.py`, which imports
no part of the package; it is loaded here by path, so that the package's
own solver is not its own reference.  The scenario domains are written out
here: at a given beta, the O1-jump domain is sized by n <= min(beta, gamma),
where the benchmark's is not.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import pytest

from chart import perfbench_module
from deepnest.cases import prohibit
from deepnest.orientations import (
    OrientationParityError,
    SignedEmpties,
    SignedOval,
    SignedScheme,
    check_orevkov,
    check_rokhlin_mishachev,
    print_signed,
)
from deepnest.schemes import parse_scheme

oracle = perfbench_module("oracle")
census, chain_magnitudes = oracle.census, oracle.chain_magnitudes

DEGREE = 9
TOTAL_EMPTIES = 26
WITH_JUMPS = "with-o1-jumps"
EVEN_GAMMA = "no-jumps-even-gamma"
ODD_GAMMA = "no-jumps-odd-gamma"
BETA_ZERO = "beta-zero"


# ---------------------------------------------------------------------------
# scenario shapes

def n_domain(kind: str, beta: int, sized: bool) -> tuple[int, ...]:
    """The n a scenario admits: at this beta when `sized`, else at any size
    of beta's parity."""
    gamma = TOTAL_EMPTIES - beta
    if kind == BETA_ZERO:
        return (0,)
    if kind == WITH_JUMPS:
        top = min(beta, gamma) if sized else 63
        return tuple(n for n in range(1, top + 1) if n % 2 == beta % 2)
    if sized:
        return tuple(sorted(chain_magnitudes(beta)))
    sizes = [b for b in range(1, TOTAL_EMPTIES) if b % 2 == beta % 2]
    return tuple(sorted(set().union(*map(chain_magnitudes, sizes))))


def shapes(beta: int, sized: bool) -> set:
    """(e1, e2, median imbalance, inner imbalance) of every sign pattern
    that a scenario of beta's parity class allows."""
    gamma = TOTAL_EMPTIES - beta
    if beta == 0:
        kinds = (BETA_ZERO,)
    else:
        kinds = (WITH_JUMPS, ODD_GAMMA if gamma % 2 else EVEN_GAMMA)
    out = set()
    for kind in kinds:
        for n in n_domain(kind, beta, sized):
            for e1, e2, e3, e4 in itertools.product((1, -1), repeat=4):
                if kind == WITH_JUMPS:
                    mi = (-n * e3, n * e3)
                elif kind == EVEN_GAMMA:
                    mi = (n * e3, 0)
                elif kind == ODD_GAMMA:
                    mi = (n * e3, e4)
                else:
                    mi = (0, 0)
                out.add((e1, e2) + mi)
    return out


# ---------------------------------------------------------------------------
# the census, read through `orientations`

def nest(e1: int, mp: int, mm: int, e2: int, ip: int, im: int) -> SignedScheme:
    inner = SignedOval(e2, SignedEmpties(ip, im))
    outer = SignedOval(e1, SignedEmpties(mp, mm), (inner,))
    return SignedScheme(DEGREE, True, SignedEmpties(0, 0), (outer,))


def identities(s: SignedScheme):
    """(signed-pair residual, pair-table residuals or None)."""
    rm = check_rokhlin_mishachev(s, "uniform")
    try:
        return rm, check_orevkov(s)
    except OrientationParityError:
        return rm, None


@lru_cache(maxsize=None)
def census_at(beta: int) -> tuple:
    """((e1, e2, m, i), printed scheme) of every census scheme at beta that
    passes both identities, after checking each scheme's identities against
    the closed form."""
    gamma = TOTAL_EMPTIES - beta
    out = []
    for e1, e2 in itertools.product((1, -1), repeat=2):
        for mp in range(beta + 1):
            for ip in range(gamma + 1):
                mm, im = beta - mp, gamma - ip
                s = nest(e1, mp, mm, e2, ip, im)
                got = identities(s)
                assert got == census(e1, e2, mp - mm, ip - im,
                                     TOTAL_EMPTIES + 2), print_signed(s)
                if got == (0, (0, 0)):
                    out.append(((e1, e2, mp - mm, ip - im), print_signed(s)))
    return tuple(out)


def fits(beta: int, sized: bool) -> set[str]:
    allowed = shapes(beta, sized)
    return {text for key, text in census_at(beta) if key in allowed}


def report(beta: int):
    text = (f"<J + 1<{beta} + 1<{TOTAL_EMPTIES - beta}>>>" if beta
            else f"<J + 1<1<{TOTAL_EMPTIES}>>>")
    return prohibit(parse_scheme(text, DEGREE))


BETAS = range(TOTAL_EMPTIES)


@pytest.mark.parametrize("beta", BETAS)
def test_feasible_is_the_census_that_fits_a_surviving_case(beta):
    assert {f.scheme for f in report(beta).feasible} == fits(beta, True)


def parity_class(beta: int) -> list[int]:
    """The sizes a parity-generic verdict at beta speaks for."""
    if beta == 0:
        return [0]
    return [b for b in range(1, TOTAL_EMPTIES) if b % 2 == beta % 2]


@pytest.mark.parametrize("beta", BETAS)
def test_prohibited_exactly_when_no_census_scheme_fits_a_scenario(beta):
    fit = any(fits(b, False) for b in parity_class(beta))
    assert (report(beta).verdict == "PROHIBITED") == (not fit)


def test_read_at_its_own_size_the_rule_fails_only_at_beta_2():
    """Read per beta instead of per parity class, the rule above fails at
    beta = 2 alone: no census scheme with 2 medians fits a scenario, yet the
    even class is OPEN, and the report says so with real_scheme_forbidden."""
    differ = [b for b in BETAS
              if (report(b).verdict == "PROHIBITED") == bool(fits(b, False))]
    assert differ == [2]
    assert report(2).verdict == "OPEN" and report(2).real_scheme_forbidden


def test_identities_alone_leave_a_few_schemes_at_odd_beta():
    """The identities leave 1-3 schemes at each odd beta up to 23 and none
    at 25, all with both nest ovals negative: Theorem 1 rests on the
    scenario shapes, not on the identities alone."""
    for beta in range(1, TOTAL_EMPTIES, 2):
        signs = {key[:2] for key, _ in census_at(beta)}
        count = len(census_at(beta))
        if beta == 25:
            assert count == 0
        else:
            assert 1 <= count <= 3, (beta, count)
            assert signs == {(-1, -1)}, beta


def test_feasible_against_the_whole_census():
    """At every beta `feasible` lies in the census; at even beta the two
    are equal, except at 14, 16, 18 and 20, where the census holds one
    scheme more."""
    for beta in BETAS:
        feasible = {f.scheme for f in report(beta).feasible}
        census_texts = {text for _, text in census_at(beta)}
        assert feasible <= census_texts, beta
        if beta % 2 == 0:
            extra = 1 if beta in (14, 16, 18, 20) else 0
            assert len(census_texts - feasible) == extra, beta
