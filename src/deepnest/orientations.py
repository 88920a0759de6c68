"""Signed schemes and orientation bookkeeping.

A signed scheme decorates every oval with +/-: empties are written with a
sign suffix ("4_+ + 9_-"), containers as "1_-<...>".  From the signed tree we
tabulate the census a complex orientation must satisfy:

  * oval counts by sign, split into empty and non-empty ovals,
  * the signed pair count over all nested (outer, inner) oval pairs,
  * a pair table over (non-empty oval sign, enclosed empty oval sign).

Two sign conventions for a nested pair are supported.  UNIFORM takes the
pair sign to be minus the product of the two ovals' signs.  LITERAL instead
signs an (oval, empty oval) pair through the *other* non-empty oval of a
two-oval nest; it is only defined for schemes whose non-empty ovals form a
single depth-3 chain, and exists so that a bookkeeping route matching a
hand computation can be replayed verbatim next to the uniform one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Literal, Optional

from .schemes import SchemeSyntaxError

Mode = Literal["uniform", "literal"]


class OrientationParityError(ValueError):
    """Raised when a census is arithmetically impossible for any curve."""


@dataclass(frozen=True)
class SignedEmpties:
    plus: int
    minus: int


@dataclass(frozen=True)
class SignedOval:
    sign: int  # +1 or -1
    empties: SignedEmpties
    ovals: tuple["SignedOval", ...] = ()


@dataclass(frozen=True)
class SignedScheme:
    degree: int
    pseudoline: bool
    empties: SignedEmpties            # outermost empty ovals
    ovals: tuple[SignedOval, ...]     # outermost non-empty ovals

    def oval_count(self) -> int:
        def walk(o: SignedOval) -> int:
            return 1 + o.empties.plus + o.empties.minus + sum(map(walk, o.ovals))
        return self.empties.plus + self.empties.minus + sum(map(walk, self.ovals))

    def component_count(self) -> int:
        return self.oval_count() + (1 if self.pseudoline else 0)


# ---------------------------------------------------------------------------
# printing / parsing

def _fmt_empties(e: SignedEmpties) -> list[str]:
    if e.plus == 0 and e.minus == 0:
        return []
    return [f"{e.plus}_+", f"{e.minus}_-"]


def _fmt_oval(o: SignedOval) -> str:
    sign = "+" if o.sign > 0 else "-"
    inner = _fmt_empties(o.empties) + [_fmt_oval(c) for c in o.ovals]
    return f"1_{sign}<" + (" + ".join(inner) if inner else "0") + ">"


def print_signed(s: SignedScheme) -> str:
    parts = (["J"] if s.pseudoline else [])
    parts += _fmt_empties(s.empties)
    parts += [_fmt_oval(o) for o in s.ovals]
    return "<" + (" + ".join(parts) if parts else "0") + ">"


_TOKEN = re.compile(r"\s*(J|\d+_[+-]|[<>+]|0(?![\d_]))")


def parse_signed(text: str, degree: int) -> SignedScheme:
    pos = 0
    tokens: list[tuple[str, int]] = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise SchemeSyntaxError("unexpected input in signed scheme", pos)
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    tokens.reverse()  # pop() from the front
    max_depth = degree // 2  # Bezout with a line: 2 * depth <= degree

    def take() -> tuple[str, int]:
        if not tokens:
            raise SchemeSyntaxError("unexpected end of signed scheme", len(text))
        return tokens.pop()

    def peek() -> str:
        return tokens[-1][0] if tokens else ""

    def body(depth: int):
        saw_j = False
        plus = minus = 0
        ovals: list[SignedOval] = []
        if peek() == "0":
            take()
            return saw_j, SignedEmpties(0, 0), ()
        while True:
            tok, at = take()
            if tok == "J":
                if depth > 0 or saw_j:
                    raise SchemeSyntaxError("misplaced one-sided component", at)
                saw_j = True
            elif tok.endswith("_+") or tok.endswith("_-"):
                count = int(tok[:-2])
                sign = 1 if tok.endswith("+") else -1
                if depth >= max_depth and (count or peek() == "<"):
                    raise SchemeSyntaxError(
                        f"nest deeper than degree // 2 = {max_depth}", at)
                if peek() == "<":
                    take()
                    j2, empties, inner = body(depth + 1)
                    tok2, at2 = take()
                    if tok2 != ">":
                        raise SchemeSyntaxError("expected '>'", at2)
                    if count != 1:
                        raise SchemeSyntaxError(
                            "signed containers must have count 1", at)
                    if empties == SignedEmpties(0, 0) and not inner:
                        # an oval containing nothing is an empty oval
                        if sign > 0:
                            plus += 1
                        else:
                            minus += 1
                    else:
                        ovals.append(SignedOval(sign, empties, inner))
                elif sign > 0:
                    plus += count
                else:
                    minus += count
            else:
                raise SchemeSyntaxError(f"unexpected token {tok!r}", at)
            if peek() == "+":
                take()
            else:
                return saw_j, SignedEmpties(plus, minus), tuple(ovals)

    if take()[0] != "<":
        raise SchemeSyntaxError("signed scheme must start with '<'", 0)
    saw_j, empties, ovals = body(0)
    tok, at = take()
    if tok != ">":
        raise SchemeSyntaxError("expected '>'", at)
    if tokens:
        raise SchemeSyntaxError("trailing input after scheme", tokens[-1][1])
    if (degree % 2 == 1) != saw_j:
        raise SchemeSyntaxError("one-sided component does not match degree", 0)
    return SignedScheme(degree, saw_j, empties, ovals)


# ---------------------------------------------------------------------------
# census

@dataclass(frozen=True)
class OrientationStats:
    all_plus: int       # ovals with sign +
    all_minus: int
    empty_plus: int     # empty ovals with sign +
    empty_minus: int
    pair_plus: int      # nested pairs counted positive
    pair_minus: int
    # pair_table[S][s]: pairs (non-empty oval of sign S, empty oval of sign s
    # anywhere inside it); keys are +1/-1
    pair_table: tuple[tuple[int, int], tuple[int, int]]

    def nonempty_plus(self) -> int:
        return self.all_plus - self.empty_plus

    def nonempty_minus(self) -> int:
        return self.all_minus - self.empty_minus

    def pairs(self, outer_sign: int, empty_sign: int) -> int:
        return self.pair_table[0 if outer_sign > 0 else 1][0 if empty_sign > 0 else 1]


def _iter_ovals(s: SignedScheme):
    """Yield (oval, ancestors) over all non-empty ovals, outermost first."""
    stack = [(o, ()) for o in s.ovals]
    while stack:
        o, anc = stack.pop()
        yield o, anc
        for c in o.ovals:
            stack.append((c, anc + (o,)))


def _literal_pair_sign(s: SignedScheme):
    """LITERAL convention: the sign for (O, empty o) is taken through the
    other non-empty oval of the nest.  Requires exactly two non-empty ovals
    forming a chain."""
    chain = [o for o, _ in _iter_ovals(s)]
    if len(chain) != 2 or chain[1] not in chain[0].ovals:
        raise ValueError(
            "literal pair convention is defined only for a two-oval nest")
    other = {id(chain[0]): chain[1].sign, id(chain[1]): chain[0].sign}
    return lambda outer, inner_sign: -other[id(outer)] * inner_sign


def compute_stats(s: SignedScheme, mode: Mode = "uniform") -> OrientationStats:
    all_p = s.empties.plus
    all_m = s.empties.minus
    empty_p = s.empties.plus
    empty_m = s.empties.minus
    pair_p = pair_m = 0
    table = [[0, 0], [0, 0]]
    literal = _literal_pair_sign(s) if mode == "literal" else None

    ovals = list(_iter_ovals(s))
    for o, ancestors in ovals:
        all_p += o.empties.plus + (o.sign > 0)
        all_m += o.empties.minus + (o.sign < 0)
        empty_p += o.empties.plus
        empty_m += o.empties.minus

    def pair_sign(outer: SignedOval, inner_sign: int, inner_empty: bool) -> int:
        if literal is not None and inner_empty:
            return literal(outer, inner_sign)
        return -outer.sign * inner_sign

    for o, ancestors in ovals:
        for anc in ancestors:
            sgn = pair_sign(anc, o.sign, False)
            pair_p += sgn > 0
            pair_m += sgn < 0
        enclosing = ancestors + (o,)
        for anc in enclosing:
            for es, count in ((1, o.empties.plus), (-1, o.empties.minus)):
                if not count:
                    continue
                sgn = pair_sign(anc, es, True)
                pair_p += count * (sgn > 0)
                pair_m += count * (sgn < 0)
                table[0 if anc.sign > 0 else 1][0 if es > 0 else 1] += count

    return OrientationStats(
        all_plus=all_p, all_minus=all_m,
        empty_plus=empty_p, empty_minus=empty_m,
        pair_plus=pair_p, pair_minus=pair_m,
        pair_table=(tuple(table[0]), tuple(table[1])),
    )


# ---------------------------------------------------------------------------
# the two arithmetic checks

def rm_rhs(degree: int, components: int) -> int:
    """Right-hand side of the signed-count identity for odd degree 2k+1:
    (number of components, ovals plus the one-sided branch) - 1 - k(k+1)."""
    if degree % 2 == 0:
        raise ValueError("identity stated here for odd degree only")
    k = (degree - 1) // 2
    return components - 1 - k * (k + 1)


def check_rokhlin_mishachev(s: SignedScheme, mode: Mode = "uniform",
                            stats: Optional[OrientationStats] = None) -> int:
    """Residual of 2(pair_plus - pair_minus) + (all_plus - all_minus)
    against the degree's right-hand side; zero means the orientation census
    is consistent."""
    st = stats or compute_stats(s, mode)
    lhs = 2 * (st.pair_plus - st.pair_minus) + (st.all_plus - st.all_minus)
    return lhs - rm_rhs(s.degree, s.component_count())


def check_orevkov(s: SignedScheme,
                  stats: Optional[OrientationStats] = None) -> tuple[int, int]:
    """Residuals of the two pair-table identities; (0, 0) means consistent.

    Uses only the census, not the pair-sign convention.  Raises
    OrientationParityError when the empty-oval imbalance is odd (the second
    identity has no integer form then).
    """
    st = stats or compute_stats(s, "uniform")
    l_plus = st.nonempty_plus()
    l_minus = st.nonempty_minus()
    lam = st.empty_plus - st.empty_minus
    if lam % 2:
        raise OrientationParityError(
            "empty-oval sign imbalance must be even, got %d" % lam)
    r1 = st.pairs(1, -1) - st.pairs(1, 1) - l_plus * l_plus
    r2 = (st.pairs(-1, 1) - st.pairs(-1, -1) + lam // 2
          - l_minus * l_minus - l_minus)
    return r1, r2


# ---------------------------------------------------------------------------
# sign chains

def chain_imbalance_set(length: int, max_jumps: int,
                        jump_parity: Optional[str] = None,
                        closed: bool = False) -> frozenset[int]:
    """Possible (plus - minus) imbalances of a sign chain of the given length.

    Consecutive members are linked; a link is a *jump* when the two signs
    coincide.  An open chain has length-1 links, a closed one also links the
    last member back to the first.  Chains with more than `max_jumps` jumps,
    or whose jump count has the wrong parity ("odd"/"even"), are excluded.
    """
    if length < 0 or max_jumps < 0:
        raise ValueError("length and max_jumps must be nonnegative")
    if jump_parity not in (None, "odd", "even"):
        raise ValueError("jump_parity must be None, 'odd' or 'even'")
    if length == 0:
        return frozenset() if jump_parity == "odd" else frozenset([0])

    def admissible(jumps: int) -> bool:
        if jumps > max_jumps:
            return False
        if jump_parity == "odd":
            return jumps % 2 == 1
        if jump_parity == "even":
            return jumps % 2 == 0
        return True

    out: set[int] = set()
    for first in (1, -1):
        # states: (current sign, jumps so far) -> set of partial imbalances
        states: dict[tuple[int, int], set[int]] = {(first, 0): {first}}
        for _ in range(length - 1):
            nxt: dict[tuple[int, int], set[int]] = {}
            for (sign, jumps), sums in states.items():
                for new in (1, -1):
                    j2 = jumps + (new == sign)
                    if j2 > max_jumps:
                        continue
                    bucket = nxt.setdefault((new, j2), set())
                    bucket.update(v + new for v in sums)
            states = nxt
        for (sign, jumps), sums in states.items():
            total = jumps + (closed and sign == first)
            if admissible(total):
                out.update(sums)
    return frozenset(out)


def chain_imbalance_magnitudes(length: int, max_jumps: int,
                               jump_parity: Optional[str] = None,
                               closed: bool = False) -> frozenset[int]:
    return frozenset(abs(v) for v in
                     chain_imbalance_set(length, max_jumps, jump_parity, closed))
