"""Sign-case analysis for the two-oval deep nest in degree 9.

The schemes under study have 28 ovals: an outer/inner nest pair, beta empty
ovals between them ("medians") and gamma = 26 - beta empty ovals inside the
inner one ("inners").  A complex orientation assigns every oval a sign, and
two independent counting identities constrain the signed census:

  * the signed-pair identity (2*(pair imbalance) + oval imbalance = 8 for a
    29-component degree-9 curve), and
  * two pair-table identities relating counts of (non-empty oval, enclosed
    empty oval) pairs to the numbers of non-empty ovals of each sign.

The census of any candidate orientation is determined up to four or five
sign unknowns once one fixes how sign alternation propagates along the
fibers of a line pencil.  Three scenarios cover the possibilities for
beta >= 1 (plus a degenerate one for beta = 0); `_SHAPES` holds each one's
(median, inner) imbalances, sign ranges and beta parity:

  with-o1-jumps        alternation breaks at the outer oval n >= 1 times;
                       medians pick up imbalance -n*eps3, inners +n*eps3.
  no-jumps-even-gamma  alternation never breaks at the outer oval; the
                       median chain carries imbalance n*eps3 where n is a
                       feasible chain imbalance, inners balance exactly.
  no-jumps-odd-gamma   as above with gamma odd, so the inners leave a
                       leftover sign eps4.
  beta-zero            no medians; the inner chain closes up and must
                       balance, leaving only the two nest-oval signs free:
                       imbalances (0, 0).

Solving an identity that is linear in n for each sign pattern yields the
admissible cases (beta-zero's slope is 0, so its one candidate is n = 0);
the pair-table identities then act as a second filter.
A PROHIBITED verdict rests on both identities together with the scenario
shapes above: the identities alone leave concrete signed schemes at every
odd beta up to 23, and only the shapes' imbalances exclude them.  The jump
budget bounds only the listed solutions (and so the survivors and feasible
schemes): no verdict changes for a budget of 1, 3, 5, 7 or 25.
Scenario domains for n are *parity-generic*: they use the parity of beta
(and the jump-budget bound for no-jump chains) but not its size.  Size
constraints enter only when a concrete scheme is emitted, so a verdict of
PROHIBITED always certifies the full parity class.  The parity-generic part
of a report (scenarios, solutions, survivors, verdict) is computed once per
class (beta = 0, odd beta, even beta >= 2) and mode, and shared between
reports; `known` sets only `new`.  The 13 odd-beta rows of Theorem 1
share one class, so `theorem1_report` reads that class once and builds no
per-row report.
The per-beta half (`_feasible`, read by `prohibit` and `theorem2_report`)
tests each survivor's fit at the concrete beta with the n-domain rule of
`Scenario.admits_n` and the two imbalance checks, building no Scenario and
raising nothing; only a survivor that fits is built, re-verified through
the full census machinery and printed.  `emit_complex_scheme` is the same
rule and builder for one case, behind a Scenario check, and raises
InfeasibleOrientationError with the reason for a misfit.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from typing import Iterable, NamedTuple, Optional

from .orientations import (
    OrientationParityError,
    SignedEmpties,
    SignedOval,
    SignedScheme,
    _pair_table_residuals,
    chain_imbalance_magnitudes,
    check_orevkov,
    check_rokhlin_mishachev,
    compute_stats,
    print_signed,
    rm_rhs,
)
from .schemes import RealScheme, classify_deep_nest, is_m_curve, parse_scheme

WITH_O1_JUMPS = "with-o1-jumps"
NO_JUMPS_EVEN_GAMMA = "no-jumps-even-gamma"
NO_JUMPS_ODD_GAMMA = "no-jumps-odd-gamma"
BETA_ZERO = "beta-zero"

# Per scenario kind: the parity of beta it fixes (None for either), the
# values eps3 and eps4 take (None when the kind has no such sign), and its
# census shape, the median and inner imbalances as multiples of n*eps3; a
# set eps4 adds to the inner imbalance.  beta-zero's shape has no n: its
# eps3 is None, so n*eps3 reads 0 and its median and inner multiples are
# never read; they stay 0 so that every row keeps the table's shape.
_SHAPES = {
    WITH_O1_JUMPS: (None, (1, -1), (None,), -1, 1),
    NO_JUMPS_EVEN_GAMMA: (0, (1, -1), (None,), 1, 0),
    NO_JUMPS_ODD_GAMMA: (1, (1, -1), (1, -1), 1, 0),
    BETA_ZERO: (0, (None,), (None,), 0, 0),
}
SCENARIO_KINDS = tuple(_SHAPES)

# the no-jump median chain can break alternation at the one-sided component
# at most 3 times, an odd number of them (a pencil sweep has odd total
# parity)
_CHAIN_JUMP_BUDGET = 3

TOTAL_EMPTIES = 26
DEGREE = 9
_NO_EMPTIES = SignedEmpties(0, 0)   # an emitted nest has none outside it
_RHS = rm_rhs(DEGREE, TOTAL_EMPTIES + 3)  # 28 ovals + one-sided = 29
_NOT_M_CURVE = ("prohibition argument applies to schemes with the maximal "
                "number of components")
_NO_NEST = "scheme has no depth-3 nest"
_SIZE_RANGE = "beta and gamma must be integers in 0..%d" % TOTAL_EMPTIES


def _is_size(v) -> bool:
    """An int in 0..26; a bool, float or str is no size even if equal to one."""
    return type(v) is int and 0 <= v <= TOTAL_EMPTIES


@cache
def _no_jump_magnitudes(beta: int) -> frozenset[int]:
    """Imbalance magnitudes of a no-jump median chain of beta ovals."""
    return chain_imbalance_magnitudes(beta, _CHAIN_JUMP_BUDGET, "odd")


def _admits(kind: str, beta: Optional[int], parity: Optional[int],
            n: int) -> bool:
    """Whether n is in the kind's n-domain with beta's size, or only its
    parity, pinned: the one rule behind `Scenario.admits_n` and a
    survivor's fit."""
    if kind == BETA_ZERO:
        return n == 0
    if kind == WITH_O1_JUMPS:
        return n >= 1 and parity in (None, n % 2)
    # no-jump kinds: n is a median-chain imbalance magnitude; the longest
    # chain of beta's parity realizes every magnitude a shorter one does,
    # so it serves when beta's size is left open
    return n in _no_jump_magnitudes(
        TOTAL_EMPTIES - parity if beta is None else beta)


class InfeasibleOrientationError(ValueError):
    """A sign case admits no concrete signed scheme at the given beta."""


class SignCase(NamedTuple):
    scenario: str
    eps1: int                  # outer nest oval sign
    eps2: int                  # inner nest oval sign
    eps3: Optional[int]        # sign carried by the n-fold imbalance
    n: int
    eps4: Optional[int] = None  # leftover inner sign when gamma is odd

    def sort_key(self):
        return (self.eps1, self.eps2, self.eps3 or 0, self.eps4 or 0, self.n)

    def imbalances(self) -> tuple[int, int]:
        """(median imbalance, inner imbalance) of the census."""
        *_, median, inner = _SHAPES[self.scenario]
        k = self.n * (self.eps3 or 0)
        return median * k, inner * k + (self.eps4 or 0)


class _ScenarioFields(NamedTuple):
    kind: str
    beta: Optional[int] = None
    parity: Optional[int] = None


class Scenario(_ScenarioFields):
    """A scenario kind with beta's size, or only its parity, pinned.

    The parity the kind already fixes is filled in: even for
    no-jumps-even-gamma and odd for no-jumps-odd-gamma (gamma = 26 - beta
    has beta's parity), and beta = 0 for beta-zero.  A size or parity that
    contradicts the kind, or each other, raises ValueError (in `_make` and
    `_replace` too), so equal scenarios compare and hash equal.
    with-o1-jumps alone may leave the parity open; gamma is read from beta."""

    __slots__ = ()

    def __new__(cls, kind: str, beta=None, parity=None):
        if kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario {kind!r}")
        if beta is not None and not _is_size(beta):
            raise ValueError(_SIZE_RANGE)
        if not (parity is None or type(parity) is int and 0 <= parity <= 1):
            raise ValueError("parity must be None, 0 or 1")
        if kind == BETA_ZERO:
            if beta not in (None, 0):
                raise ValueError("beta-zero scenario requires beta = 0")
            beta = 0
        if beta is not None:
            if parity not in (None, beta % 2):
                raise ValueError("parity contradicts beta")
            parity = beta % 2
        kind_parity = _SHAPES[kind][0]
        if kind_parity is not None:
            if parity not in (None, kind_parity):
                raise ValueError("gamma must be %s here"
                                 % ("odd" if kind_parity else "even"))
            parity = kind_parity
        return super().__new__(cls, kind, beta, parity)

    @classmethod
    def _make(cls, iterable) -> Scenario:
        return cls(*iterable)

    @property
    def gamma(self) -> Optional[int]:
        return None if self.beta is None else TOTAL_EMPTIES - self.beta

    def admits_n(self, n: int) -> bool:
        return _admits(self.kind, self.beta, self.parity, n)


def make_scenario(kind: str, beta: Optional[int] = None,
                  gamma: Optional[int] = None) -> Scenario:
    """The scenario with beta's size given as beta, as gamma = 26 - beta or
    as both, the way the `solve` command takes it."""
    if gamma is not None:
        if not _is_size(gamma):
            raise ValueError(_SIZE_RANGE)
        if beta is None:
            beta = 0 if kind == BETA_ZERO else TOTAL_EMPTIES - gamma
        # an unknown kind or a beta out of range is Scenario's to report
        if (kind in SCENARIO_KINDS and _is_size(beta)
                and beta + gamma != TOTAL_EMPTIES):
            raise ValueError("beta + gamma must be %d" % TOTAL_EMPTIES)
    return Scenario(kind, beta)


# ---------------------------------------------------------------------------
# the linear identity per sign case

def rm_lhs(case: SignCase, mode: str = "uniform") -> int:
    """Left-hand side of the signed-pair identity for the case's census."""
    e1, e2 = case.eps1, case.eps2
    m_imb, i_imb = case.imbalances()
    if mode == "uniform":
        pair_diff = -e1 * e2 - e1 * (m_imb + i_imb) - e2 * i_imb
    elif mode == "literal":
        pair_diff = -e1 * e2 - e2 * (m_imb + i_imb) - e1 * i_imb
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return 2 * pair_diff + (e1 + e2 + m_imb + i_imb)


def rm_case_residual(case: SignCase, mode: str = "uniform") -> int:
    return rm_lhs(case, mode) - _RHS


def solve_scenario(scenario: Scenario, mode: str = "uniform") -> list[SignCase]:
    """All sign cases of the scenario satisfying the signed-pair identity,
    in deterministic order.  n is solved for exactly: the identity is linear
    in n, with nonzero slope for every sign pattern of every kind but
    beta-zero, whose slope is 0 and whose one candidate is n = 0.

    Results are cached per (scenario, mode); each call returns a fresh
    list, so a caller that changes it cannot reach the cached value."""
    if not isinstance(scenario, Scenario):
        raise TypeError(f"expected a Scenario, got {scenario!r}")
    return list(_solve_scenario(scenario, mode))


@cache
def _solve_scenario(scenario: Scenario, mode: str) -> tuple[SignCase, ...]:
    # Scenario validation bounds the keys to 120, so the cache needs no size
    # limit
    kind = scenario.kind
    _, eps3_values, eps4_values, _, _ = _SHAPES[kind]
    out: list[SignCase] = []
    for e1, e2, e3, e4 in product((1, -1), (1, -1), eps3_values, eps4_values):
        at0 = rm_case_residual(SignCase(kind, e1, e2, e3, 0, e4), mode)
        slope = rm_case_residual(SignCase(kind, e1, e2, e3, 1, e4),
                                 mode) - at0
        n, rem = divmod(-at0, slope) if slope else (0, at0)
        if not rem and scenario.admits_n(n):
            out.append(SignCase(kind, e1, e2, e3, n, e4))
    out.sort(key=SignCase.sort_key)
    return tuple(out)


# ---------------------------------------------------------------------------
# pair-table filter

def orevkov_case_residuals(case: SignCase) -> tuple[int, int]:
    """The two pair-table residuals computed from the case's census alone.

    Only sign imbalances enter, so the result is independent of the
    concrete beta.  Raises OrientationParityError when the empty-oval
    imbalance is odd (no concrete scheme could realize the census)."""
    e1, e2 = case.eps1, case.eps2
    m_imb, i_imb = case.imbalances()
    # signed content of each non-empty oval: outer holds all empties,
    # inner holds the inners
    lam = m_imb + i_imb
    return _pair_table_residuals(
        lam, (e1 > 0) + (e2 > 0), (e1 < 0) + (e2 < 0),
        lam * (e1 > 0) + i_imb * (e2 > 0), lam * (e1 < 0) + i_imb * (e2 < 0))


def orevkov_filter(cases: Iterable[SignCase]) -> list[SignCase]:
    out = []
    for case in cases:
        try:
            if orevkov_case_residuals(case) == (0, 0):
                out.append(case)
        except OrientationParityError:
            continue
    return out


# ---------------------------------------------------------------------------
# concrete signed schemes

def _misfit(case: SignCase, beta: int, gamma: int) -> Optional[tuple]:
    """None when the case's census fits beta medians and gamma inners, else
    why not, as a format and its arguments: n outside its domain at this
    size, then per group a wrong parity or an imbalance too large.  Only
    `emit_complex_scheme` formats the text, when it raises."""
    if not _admits(case.scenario, beta, beta % 2, case.n):
        return "n=%s is not admissible at beta=%s", case.n, beta
    m_imb, i_imb = case.imbalances()
    for total, imb in ((beta, m_imb), (gamma, i_imb)):
        if (total + imb) % 2:
            return "imbalance %s has the wrong parity for %s ovals", imb, total
        if abs(imb) > total:    # one sign would count fewer than 0 ovals
            return "imbalance %s does not fit in %s ovals", imb, total
    return None


def _signed_nest(case: SignCase, beta: int, gamma: int) -> SignedScheme:
    """The signed nest carrying a fitting case's census."""
    m_imb, i_imb = case.imbalances()
    inner = SignedOval(case.eps2, SignedEmpties((gamma + i_imb) // 2,
                                                (gamma - i_imb) // 2))
    return SignedScheme(DEGREE, True, _NO_EMPTIES, (SignedOval(
        case.eps1, SignedEmpties((beta + m_imb) // 2, (beta - m_imb) // 2),
        (inner,)),))


def emit_complex_scheme(case: SignCase, beta: int) -> SignedScheme:
    """Concrete signed scheme carrying the case's census at the given beta.

    Raises ValueError when beta or the case's kind makes no Scenario, and
    InfeasibleOrientationError when the census does not fit: n is outside
    the scenario's n-domain at this size, or a group count would be
    fractional or negative.
    """
    gamma = Scenario(case.scenario, beta).gamma
    reason = _misfit(case, beta, gamma)
    if reason:
        raise InfeasibleOrientationError(reason[0] % reason[1:])
    return _signed_nest(case, beta, gamma)


# ---------------------------------------------------------------------------
# prohibition verdicts

class ScenarioResult(NamedTuple):
    scenario: Scenario
    solutions: tuple[SignCase, ...]
    survivors: tuple[SignCase, ...]


class FeasibleScheme(NamedTuple):
    case: SignCase
    scheme: str
    rm_residual: int
    orevkov_residuals: tuple[int, int]


class ProhibitReport(NamedTuple):
    scheme: str
    beta: int
    gamma: int
    mode: str
    results: tuple[ScenarioResult, ...]
    verdict: str                 # "PROHIBITED" or "OPEN"
    new: Optional[bool]          # set when PROHIBITED
    real_scheme_forbidden: bool  # OPEN, yet no survivor fits this beta
    feasible: tuple[FeasibleScheme, ...]


def deep_nest_scheme(beta: int) -> RealScheme:
    """The parsed scheme <J + 1<beta + 1<26 - beta>>>, a convenience for
    callers who hold beta and want to go through `prohibit`."""
    return parse_scheme(f"<J + 1<{beta} + 1<{TOTAL_EMPTIES - beta}>>>",
                        DEGREE)


def prohibit(scheme: RealScheme, known: Iterable[int] = (),
             mode: str = "uniform") -> ProhibitReport:
    """Run the full prohibition argument against a deep-nest scheme.

    The verdict is parity-generic: PROHIBITED means no sign case of any
    scenario for beta's parity passes both identities, which rules out the
    entire parity class.  Concrete size information is reported separately:
    `feasible` lists the survivors realizable at this exact beta, and
    `real_scheme_forbidden` is set when the verdict is OPEN only on behalf
    of other sizes in the parity class.
    """
    if not is_m_curve(scheme):
        raise ValueError(_NOT_M_CURVE)
    profile = classify_deep_nest(scheme)
    if profile is None:
        raise ValueError(_NO_NEST)
    if profile.alpha != 0:
        raise ValueError("prohibition argument requires all empty ovals "
                         "inside the nest")
    return _prohibit(profile.beta, profile.gamma, known, mode)


@cache
def _parity_class(kind: str, mode: str) -> tuple[tuple[ScenarioResult, ...],
                                                 tuple[SignCase, ...]]:
    """The parity-generic part of a prohibition for the class that its
    beta-zero or no-jump kind names: each scenario with its solutions and
    pair-table survivors, then all survivors.  3 kinds, 2 modes: 6 keys."""
    if kind == BETA_ZERO:
        scenarios = [Scenario(BETA_ZERO)]
    else:
        # parity-generic: pin beta's parity but not its size
        scenarios = [Scenario(WITH_O1_JUMPS, parity=_SHAPES[kind][0]),
                     Scenario(kind)]
    results = []
    for scn in scenarios:
        sols = _solve_scenario(scn, mode)
        results.append(ScenarioResult(scn, sols, tuple(orevkov_filter(sols))))
    return tuple(results), tuple(c for r in results for c in r.survivors)


def _verdict(survivors: tuple[SignCase, ...]) -> str:
    """PROHIBITED when no sign case of the parity class survives."""
    return "OPEN" if survivors else "PROHIBITED"


def _class_kind(beta: int, gamma: int) -> str:
    """The beta-zero or no-jump kind naming the parity class of a nest's
    sizes, the key of `_parity_class`."""
    return (BETA_ZERO if beta == 0
            else NO_JUMPS_ODD_GAMMA if gamma % 2 else NO_JUMPS_EVEN_GAMMA)


def _feasible(survivors: tuple[SignCase, ...], beta: int, gamma: int
              ) -> tuple[tuple[FeasibleScheme, ...], tuple[SignCase, ...]]:
    """The per-beta half of a report: each survivor that fits this beta,
    built and re-verified through the full census machinery, then those
    that do not fit, both in survivor order.  A misfit builds nothing."""
    feasible, skipped = [], []
    for case in survivors:
        if _misfit(case, beta, gamma):
            skipped.append(case)
            continue
        signed = _signed_nest(case, beta, gamma)
        st = compute_stats(signed, "uniform")
        rm = check_rokhlin_mishachev(signed, "uniform", stats=st)
        orv = check_orevkov(signed, stats=st)
        feasible.append(FeasibleScheme(case, print_signed(signed), rm, orv))
    return tuple(feasible), tuple(skipped)


def _prohibit(beta: int, gamma: int, known: Iterable[int],
              mode: str) -> ProhibitReport:
    """`prohibit` on the sizes of a validated nest: beta >= 0, gamma >= 1
    and beta + gamma = 26."""
    results, survivors_all = _parity_class(_class_kind(beta, gamma), mode)
    feasible, _ = _feasible(survivors_all, beta, gamma)
    verdict = _verdict(survivors_all)
    # the scheme in print_scheme's spelling (at beta = 0 the median oval
    # holds only the inner nest oval); `known` is read only for PROHIBITED,
    # and frozenset() returns theorem1_report's frozenset without a copy
    return ProhibitReport(
        f"<J + 1<{beta} + 1<{gamma}>>>" if beta else f"<J + 1<1<{gamma}>>>",
        beta, gamma, mode, results, verdict,
        (beta not in frozenset(known)) if verdict == "PROHIBITED" else None,
        verdict == "OPEN" and not feasible, feasible)


# ---------------------------------------------------------------------------
# the two theorem tables

class TheoremOneRow(NamedTuple):
    beta: int
    gamma: int
    verdict: str
    new: bool
    solution_count: int


def theorem1_report(known: Iterable[int] = (1, 3, 25)) -> list[TheoremOneRow]:
    """Prohibition table over all odd beta.  The 13 rows share one parity
    class, so one verdict and one solution count; `known` sets only `new`."""
    known = frozenset(known)
    results, survivors = _parity_class(NO_JUMPS_ODD_GAMMA, "uniform")
    verdict = _verdict(survivors)
    count = sum(len(r.solutions) for r in results)
    return [TheoremOneRow(beta, TOTAL_EMPTIES - beta, verdict,
                          verdict == "PROHIBITED" and beta not in known, count)
            for beta in range(1, TOTAL_EMPTIES, 2)]


class TheoremTwoRow(NamedTuple):
    beta: int
    gamma: int
    schemes: tuple[FeasibleScheme, ...]
    skipped: tuple[SignCase, ...]   # survivors that do not fit this beta


def theorem2_report(beta: int, gamma: Optional[int] = None) -> TheoremTwoRow:
    """Candidate signed schemes at an even beta: every parity-generic
    survivor that fits, re-verified through the full census machinery."""
    if not _is_size(beta) or not (gamma is None or _is_size(gamma)):
        raise ValueError(_SIZE_RANGE)
    if beta % 2:
        raise ValueError("this table covers even beta")
    if gamma is None:
        gamma = TOTAL_EMPTIES - beta
    if beta + gamma != TOTAL_EMPTIES:
        raise ValueError(_NOT_M_CURVE)
    if gamma == 0:
        raise ValueError(_NO_NEST)
    _, survivors = _parity_class(_class_kind(beta, gamma), "uniform")
    return TheoremTwoRow(beta, gamma, *_feasible(survivors, beta, gamma))


# ---------------------------------------------------------------------------
# the degenerate nest

class BetaZeroReport(NamedTuple):
    lhs_values: tuple[int, ...]
    max_abs_lhs: int
    rhs: int
    contradiction: bool
    comparison_components: int
    comparison_rhs: int
    comparison_contradiction: bool


def beta_zero_contradiction() -> BetaZeroReport:
    """With no medians the inner chain closes up, forcing zero imbalance;
    the identity's left side then cannot reach the degree-9 value 8.  A
    21-component curve (right side 0) shows the census itself is fine."""
    lhs = sorted({rm_lhs(SignCase(BETA_ZERO, e1, e2, None, 0), "uniform")
                  for e1 in (1, -1) for e2 in (1, -1)})
    max_abs = max(abs(v) for v in lhs)
    comparison_rhs = rm_rhs(DEGREE, 21)
    return BetaZeroReport(
        lhs_values=tuple(lhs),
        max_abs_lhs=max_abs,
        rhs=_RHS,
        contradiction=max_abs < _RHS,
        comparison_components=21,
        comparison_rhs=comparison_rhs,
        comparison_contradiction=comparison_rhs not in lhs,
    )
