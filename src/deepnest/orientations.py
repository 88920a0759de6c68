"""Signed schemes and orientation bookkeeping.

A signed scheme decorates every oval with +/-.  It is written in the one
scheme grammar of `schemes`, read by the same `read_scheme`, with a sign
suffix on every count: empties as "4_+ + 9_-", containers as "1_-<...>"
(count 1 only), and a bare "0" for no ovals.  From the signed tree we
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

from typing import Literal, NamedTuple, Optional

from .schemes import _ItemError, print_items, read_scheme

Mode = Literal["uniform", "literal"]


class OrientationParityError(ValueError):
    """Raised when a census is arithmetically impossible for any curve."""


class SignedEmpties(NamedTuple):
    plus: int
    minus: int


class SignedOval(NamedTuple):
    """A non-empty oval of sign +1 or -1, with the empty ovals and the
    non-empty ovals directly inside it.  A tree is unhashable, so hash()
    raises TypeError at once at any depth; `==` and repr() recurse, and raise
    RecursionError a few hundred levels deep."""

    sign: int
    empties: SignedEmpties
    ovals: tuple["SignedOval", ...] = ()
    __hash__ = None


class SignedScheme(NamedTuple):
    degree: int
    pseudoline: bool
    empties: SignedEmpties            # outermost empty ovals
    ovals: tuple[SignedOval, ...]     # outermost non-empty ovals
    __hash__ = None     # as its trees are, even when it has none

    def oval_count(self) -> int:
        total = self.empties.plus + self.empties.minus
        for o in _iter_ovals(self):
            total += 1 + o.empties.plus + o.empties.minus
        return total

    def component_count(self) -> int:
        return self.oval_count() + (1 if self.pseudoline else 0)


# ---------------------------------------------------------------------------
# printing / parsing

def _fmt_empties(e: SignedEmpties) -> list[str]:
    if e.plus == 0 and e.minus == 0:
        return []
    return [f"{e.plus}_+", f"{e.minus}_-"]


def _oval_node(o: SignedOval) -> tuple[str, list]:
    head = "1_+" if o.sign > 0 else "1_-"
    return head, _fmt_empties(o.empties) + list(o.ovals)


def print_signed(s: SignedScheme) -> str:
    items = (["J"] if s.pseudoline else []) + _fmt_empties(s.empties)
    return "<" + print_items(items + list(s.ovals), _oval_node) + ">"


def _signed_item(count: int, sign: str, body: Optional[list]):
    """A signed item: a (plus, minus) pair for empty ovals, SignedOval for
    a container, None for a bare 0."""
    if not sign:
        if count or body is not None:
            raise _ItemError("a signed count needs the suffix '_+' or '_-'")
        return None
    if body is not None:
        if count != 1:
            raise _ItemError("signed containers must have count 1")
        empties, ovals = _signed_body(body)
        if ovals or empties.plus or empties.minus:
            return SignedOval(1 if sign == "+" else -1, empties, ovals)
        # an oval containing nothing is an empty oval
    return (count, 0) if sign == "+" else (0, count)


def _signed_body(items: list) -> tuple[SignedEmpties, tuple[SignedOval, ...]]:
    plus = minus = 0
    ovals = []
    for item in items:
        if isinstance(item, SignedOval):
            ovals.append(item)
        else:
            plus += item[0]
            minus += item[1]
    return SignedEmpties(plus, minus), tuple(ovals)


def parse_signed(text: str, degree: int) -> SignedScheme:
    saw_j, items = read_scheme(text, degree, _signed_item)
    return SignedScheme(degree, saw_j, *_signed_body(items))


# ---------------------------------------------------------------------------
# census

class OrientationStats(NamedTuple):
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


def _iter_ovals(s: SignedScheme) -> list[SignedOval]:
    """Every non-empty oval, each before the ovals inside it."""
    ovals = list(s.ovals)
    for o in ovals:     # the list grows as it is read
        ovals.extend(o.ovals)
    return ovals


def _literal_keys(s: SignedScheme) -> dict[int, int]:
    """LITERAL convention: the sign for (O, empty o) is taken through the
    other non-empty oval of the nest, so each oval's key (by id) is that
    oval's sign.  Requires exactly two non-empty ovals forming a chain."""
    chain = _iter_ovals(s)
    if len(chain) != 2 or chain[1] not in chain[0].ovals:
        raise ValueError(
            "literal pair convention is defined only for a two-oval nest")
    return {id(chain[0]): chain[1].sign, id(chain[1]): chain[0].sign}


def compute_stats(s: SignedScheme, mode: Mode = "uniform") -> OrientationStats:
    """One walk over the non-empty ovals.  Each carries the number of + and
    - ovals enclosing it and the number of + and - pair keys among them;
    an (outer, inner) pair is signed -key(outer) * sign(inner), where the
    key is the outer oval's own sign, except in LITERAL mode for an empty
    inner oval."""
    if mode not in ("uniform", "literal"):
        raise ValueError(f"unknown mode {mode!r}")
    keys = _literal_keys(s) if mode == "literal" else None
    empty_p, empty_m = s.empties.plus, s.empties.minus
    all_p = all_m = 0       # non-empty ovals; the empty ones are added last
    pair_p = pair_m = 0
    pp = pm = mp = mm = 0   # table: (outer sign, empty sign) pair counts
    stack = [(o, 0, 0, 0, 0) for o in s.ovals]
    while stack:
        o, plus, minus, key_plus, key_minus = stack.pop()
        ep, em = o.empties.plus, o.empties.minus
        empty_p += ep
        empty_m += em
        if o.sign > 0:
            all_p += 1
            pair_p += minus
            pair_m += plus
            plus += 1
        else:
            all_m += 1
            pair_p += plus
            pair_m += minus
            minus += 1
        if (o.sign if keys is None else keys[id(o)]) > 0:
            key_plus += 1
        else:
            key_minus += 1
        pair_p += key_minus * ep + key_plus * em
        pair_m += key_plus * ep + key_minus * em
        pp += plus * ep
        pm += plus * em
        mp += minus * ep
        mm += minus * em
        for c in o.ovals:
            stack.append((c, plus, minus, key_plus, key_minus))

    return OrientationStats(
        all_plus=all_p + empty_p, all_minus=all_m + empty_m,
        empty_plus=empty_p, empty_minus=empty_m,
        pair_plus=pair_p, pair_minus=pair_m,
        pair_table=((pp, pm), (mp, mm)),
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
    if mode not in ("uniform", "literal"):
        raise ValueError(f"unknown mode {mode!r}")
    st = stats or compute_stats(s, mode)
    lhs = 2 * (st.pair_plus - st.pair_minus) + (st.all_plus - st.all_minus)
    # the census counts every oval once, by its sign
    components = st.all_plus + st.all_minus + s.pseudoline
    return lhs - rm_rhs(s.degree, components)


def check_orevkov(s: SignedScheme,
                  stats: Optional[OrientationStats] = None) -> tuple[int, int]:
    """Residuals of the two pair-table identities; (0, 0) means consistent.

    Uses only the census, not the pair-sign convention.  Raises
    OrientationParityError when the empty-oval imbalance is odd (the second
    identity has no integer form then).
    """
    st = stats or compute_stats(s, "uniform")
    (pp, pm), (mp, mm) = st.pair_table
    return _pair_table_residuals(st.empty_plus - st.empty_minus,
                                 st.nonempty_plus(), st.nonempty_minus(),
                                 pp - pm, mp - mm)


def _pair_table_residuals(lam: int, l_plus: int, l_minus: int,
                          held_plus: int, held_minus: int) -> tuple[int, int]:
    """The pair-table residuals from the empty-oval imbalance lam, the + and
    - non-empty oval counts, and the empty-oval imbalance that the + ones
    and the - ones enclose; an odd lam raises OrientationParityError."""
    if lam % 2:
        raise OrientationParityError(
            "empty-oval sign imbalance must be even, got %d" % lam)
    return (-held_plus - l_plus * l_plus,
            held_minus + lam // 2 - l_minus * l_minus - l_minus)


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
