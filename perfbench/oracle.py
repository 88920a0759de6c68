"""Expected answers derived from the paper's definitions, without deepnest.

Nothing here imports the package under test.  The benchmark compares every
operation's result against these answers and counts a mismatch as a failed
operation.

The nests checked are two-oval deep nests of degree 9,

    <J + 1_e1<a_+ + b_- + 1_e2<c_+ + d_->>>

with a median imbalance m = a - b and an inner imbalance i = c - d.  Their
signed census has a closed form, so both orientation identities can be
evaluated without walking a scheme tree.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache

DEGREE = 9
TOTAL_EMPTIES = 26
ODD_BETAS = tuple(range(1, TOTAL_EMPTIES, 2))
EVEN_BETAS = tuple(range(2, TOTAL_EMPTIES, 2))
CHAIN_JUMP_BUDGET = 3
SCENARIO_KINDS = ("with-o1-jumps", "no-jumps-even-gamma",
                  "no-jumps-odd-gamma", "beta-zero")

# Theorem 2 survivors pinned by the paper at 4 and 12 medians; none at 2.
THEOREM2_PINNED = {
    2: frozenset(),
    4: frozenset({
        "<J + 1_-<4_+ + 0_- + 1_-<11_+ + 11_->>>",
        "<J + 1_+<4_+ + 0_- + 1_+<9_+ + 13_->>>",
    }),
    12: frozenset({
        "<J + 1_-<3_+ + 9_- + 1_-<10_+ + 4_->>>",
        "<J + 1_+<8_+ + 4_- + 1_+<5_+ + 9_->>>",
        "<J + 1_-<8_+ + 4_- + 1_-<7_+ + 7_->>>",
    }),
}

# Lemma 3: the reducible-cubic event sequence of each valid case, as
# (line component, cyclic position order), read up to cyclic rotation.
REFERENCE_SEQUENCES = {
    1: (("16", "14523"), ("14", "12356"), ("12", "14365"),
        ("15", "12643"), ("13", "15426")),
    2: (("12", "14365"), ("15", "12643"), ("16", "12543"),
        ("13", "12456"), ("14", "12356")),
    3: (("16", "15234"), ("14", "15326"), ("15", "13264"),
        ("13", "14265"), ("12", "14365")),
}

_NEST = re.compile(r"<J \+ 1_([+-])<(\d+)_\+ \+ (\d+)_- \+ "
                   r"1_([+-])<(\d+)_\+ \+ (\d+)_->>>")


def signed_nest(e1: int, a: int, b: int, e2: int, c: int, d: int) -> str:
    s1 = "+" if e1 > 0 else "-"
    s2 = "+" if e2 > 0 else "-"
    return f"<J + 1_{s1}<{a}_+ + {b}_- + 1_{s2}<{c}_+ + {d}_->>>"


def parse_nest(text: str):
    """(e1, a, b, e2, c, d) of a printed two-oval nest, or None."""
    m = _NEST.fullmatch(text)
    if m is None:
        return None
    s1, a, b, s2, c, d = m.groups()
    return (1 if s1 == "+" else -1, int(a), int(b),
            1 if s2 == "+" else -1, int(c), int(d))


def census(e1: int, e2: int, m: int, i: int, ovals: int,
           mode: str = "uniform"):
    """(signed-pair residual, pair-table residuals) of a two-oval nest.

    The pair sign of (outer, inner oval) is minus the product of their
    signs.  For an empty oval the uniform convention uses the enclosing
    oval's sign, the literal one the sign of the *other* nest oval.  The
    pair-table residuals are None when the empty-oval imbalance is odd.
    """
    if mode == "uniform":
        pair_diff = -e1 * e2 - e1 * (m + i) - e2 * i
    else:
        pair_diff = -e1 * e2 - e2 * (m + i) - e1 * i
    lhs = 2 * pair_diff + e1 + e2 + m + i
    k = (DEGREE - 1) // 2
    rhs = (ovals + 1) - 1 - k * (k + 1)
    lam = m + i
    if lam % 2:
        return lhs - rhs, None
    l_plus = (e1 > 0) + (e2 > 0)
    l_minus = (e1 < 0) + (e2 < 0)
    # signed content (plus minus minus) of the empties inside each oval
    r1 = -((m + i) * (e1 > 0) + i * (e2 > 0)) - l_plus * l_plus
    r2 = ((m + i) * (e1 < 0) + i * (e2 < 0) + lam // 2
          - l_minus * l_minus - l_minus)
    return lhs - rhs, (r1, r2)


def nest_census(e1, a, b, e2, c, d, mode="uniform"):
    return census(e1, e2, a - b, c - d, a + b + c + d + 2, mode)


@lru_cache(maxsize=None)
def consistent_nests() -> frozenset:
    """Every M-curve two-oval nest passing both identities (uniform)."""
    out = set()
    for e1, e2 in itertools.product((1, -1), repeat=2):
        for a, b, c in itertools.product(range(TOTAL_EMPTIES + 1), repeat=3):
            d = TOTAL_EMPTIES - a - b - c
            if d < 0 or c + d == 0 or a + b == 0:
                continue
            rm, orv = nest_census(e1, a, b, e2, c, d)
            if rm == 0 and orv == (0, 0):
                out.add(signed_nest(e1, a, b, e2, c, d))
    return frozenset(out)


# ---------------------------------------------------------------------------
# sign cases of the four scenarios

def _compositions(total: int, parts: int):
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0,) + cuts + (total,)
        yield [bounds[k + 1] - bounds[k] for k in range(parts)]


@lru_cache(maxsize=None)
def chain_magnitudes(length: int) -> frozenset:
    """|plus - minus| over open sign chains of `length` whose alternation
    breaks an odd number (at most 3) of times.  A chain with j breaks is
    j + 1 alternating runs; a run contributes its first sign when its
    length is odd, and the next run starts with the previous run's last
    sign."""
    out = set()
    for jumps in range(1, CHAIN_JUMP_BUDGET + 1, 2):
        if jumps + 1 > length:
            continue
        for runs in _compositions(length, jumps + 1):
            for first in (1, -1):
                sign, total = first, 0
                for r in runs:
                    if r % 2:
                        total += sign
                    sign = sign * (-1) ** (r - 1)
                out.add(abs(total))
    return frozenset(out)


def n_domain(kind: str, beta, parity=None):
    """Admissible n for a scenario; beta None means any size, of the given
    parity when one is given."""
    if kind == "beta-zero":
        return (0,)
    if kind == "with-o1-jumps":
        if beta is not None:
            parity = beta % 2
        return tuple(n for n in range(1, 64)
                     if parity is None or n % 2 == parity)
    if beta is not None:
        return tuple(sorted(chain_magnitudes(beta)))
    parity = 0 if kind == "no-jumps-even-gamma" else 1
    sizes = [b for b in range(1, TOTAL_EMPTIES) if b % 2 == parity]
    return tuple(sorted(set().union(*map(chain_magnitudes, sizes))))


def imbalances(kind, e3, e4, n):
    """(median imbalance, inner imbalance) of a sign case."""
    if kind == "with-o1-jumps":
        return -n * e3, n * e3
    if kind == "no-jumps-even-gamma":
        return n * e3, 0
    if kind == "no-jumps-odd-gamma":
        return n * e3, e4
    return 0, 0


def solve(kind: str, beta, mode: str, parity=None):
    """(solutions, survivors) as sorted (e1, e2, e3, e4, n) tuples."""
    e3s = (None,) if kind == "beta-zero" else (1, -1)
    e4s = (1, -1) if kind == "no-jumps-odd-gamma" else (None,)
    sols = []
    for e1, e2, e3, e4 in itertools.product((1, -1), (1, -1), e3s, e4s):
        for n in n_domain(kind, beta, parity):
            m, i = imbalances(kind, e3, e4, n)
            rm, orv = census(e1, e2, m, i, TOTAL_EMPTIES + 2, mode)
            if rm == 0:
                sols.append(((e1, e2, e3, e4, n), orv == (0, 0)))
    key = lambda t: (t[0], t[1], t[2] or 0, t[3] or 0, t[4])
    solutions = tuple(sorted((c for c, _ in sols), key=key))
    survivors = tuple(sorted((c for c, ok in sols if ok), key=key))
    return solutions, survivors


def solve_verdict(kind: str, beta, mode: str) -> str:
    solutions, survivors = solve(kind, beta, mode)
    if survivors:
        return "SURVIVORS"
    return "ELIMINATED" if solutions else "NO_SOLUTIONS"


# ---------------------------------------------------------------------------
# the theorem tables

def prohibit_verdict(beta: int) -> str:
    return "PROHIBITED" if beta % 2 else "OPEN"


def theorem1_rows(known) -> list:
    """(beta, gamma, verdict, new) for the 13 odd-beta rows."""
    known = set(known)
    return [(b, TOTAL_EMPTIES - b, "PROHIBITED", b not in known)
            for b in ODD_BETAS]


def theorem2_schemes(beta: int) -> frozenset:
    """Signed nests at an even beta: each survivor of the parity class that
    fits beta medians, written out with its census."""
    gamma = TOTAL_EMPTIES - beta
    kinds = ("with-o1-jumps",
             "no-jumps-odd-gamma" if gamma % 2 else "no-jumps-even-gamma")
    out = set()
    for kind in kinds:
        for e1, e2, e3, e4, n in solve(kind, None, "uniform", beta % 2)[1]:
            if n not in n_domain(kind, beta):
                continue
            if kind == "with-o1-jumps" and n > min(beta, gamma):
                continue
            m, i = imbalances(kind, e3, e4, n)
            if (beta + m) % 2 or (gamma + i) % 2 or abs(m) > beta \
                    or abs(i) > gamma:
                continue
            out.add(signed_nest(e1, (beta + m) // 2, (beta - m) // 2,
                                e2, (gamma + i) // 2, (gamma - i) // 2))
    return frozenset(out)


def theorem2_problem(beta: int, schemes) -> str | None:
    """Why a Theorem 2 scheme list at `beta` is wrong, or None."""
    schemes = set(schemes)
    if beta in THEOREM2_PINNED and schemes != THEOREM2_PINNED[beta]:
        return f"beta={beta}: schemes {sorted(schemes)} differ from the pins"
    if schemes != theorem2_schemes(beta):
        return f"beta={beta}: schemes {sorted(schemes)} are not the survivors"
    failing = schemes - consistent_nests()
    if failing:
        return f"{sorted(failing)} fail the closed-form census"
    return None


# ---------------------------------------------------------------------------
# real schemes and traces

def deep_nest_text(rng, alpha: int, beta: int, gamma: int) -> tuple[str, str]:
    """(scrambled input text, expected canonical text) of a deep nest.

    Counts are split into several items, items are shuffled and spacing
    varies, all of which the canonical form undoes."""
    def split(total):
        parts = []
        while total:
            k = rng.randint(1, total)
            parts.append(str(k))
            total -= k
        return parts

    def join(items):
        rng.shuffle(items)
        return rng.choice((" + ", "+", "  +  ")).join(items)

    inner = f"1<{join(split(gamma))}>"
    outer = f"1<{join(split(beta) + [inner])}>"
    top = join(["J"] + split(alpha) + [outer])
    canon_outer = f"1<{beta} + 1<{gamma}>>" if beta else f"1<1<{gamma}>>"
    canonical = "<J + " + (f"{alpha} + " if alpha else "") + canon_outer + ">"
    return f"<{top}>", canonical


def random_trace(rng) -> dict:
    """A well-formed trace: distinct ovals, optionally one nodal pair."""
    visits = []
    for k in range(rng.randint(2, 9)):
        visits.append({"oval": f"o{k}",
                       "role": rng.choice(("median", "inner"))})
    if rng.random() < 0.5:
        role = rng.choice(("median", "inner"))
        first, second = sorted(rng.sample(range(len(visits) + 1), 2))
        visits.insert(first, {"oval": "n", "role": role, "node": True})
        visits.insert(second + 1, {"oval": "n", "role": role, "node": True})
    arcs = [{"jCrossings": rng.choice((0, 0, 0, 1, 2))} for _ in visits]
    extras = [{"count": rng.randint(0, 3), "tag": f"t{k}"}
              for k in range(rng.randint(0, 2))]
    return {"degree": rng.randint(1, 4), "visits": visits, "arcs": arcs,
            "extras": extras}


# Regions of the plane cut out by the two nest ovals: 0 outside the outer
# oval, where the one-sided component runs; 1 between the ovals (a median
# oval's region); 2 inside the inner oval.  Stepping 0-1 crosses the outer
# oval, stepping 1-2 the inner one.
_REGION = {"median": 1, "inner": 2}


def _cheapest_walk(a: int, b: int, outside: bool) -> tuple[int, int]:
    """(outer, inner) crossings of a shortest walk from region a to region
    b, through region 0 when `outside`: breadth-first over (region, been
    outside) states."""
    start, goal = (a, a == 0), (b, True if outside else None)
    frontier, seen = [(start, 0, 0)], {start}
    while frontier:
        nxt = []
        for (region, been), outer, inner in frontier:
            if region == goal[0] and goal[1] in (None, been):
                return outer, inner
            for step in (region - 1, region + 1):
                if 0 <= step <= 2:
                    state = (step, been or step == 0)
                    if state not in seen:
                        seen.add(state)
                        crosses_outer = {region, step} == {0, 1}
                        nxt.append((state, outer + crosses_outer,
                                    inner + (not crosses_outer)))
        frontier = nxt
    raise AssertionError("the region graph is connected")


def audit_answer(trace: dict) -> tuple[int, int, int, str]:
    """(outer crossings, inner crossings, total, verdict) of a trace.

    Derived as the cheapest closed walk through the regions the visits
    name: each arc walks from its visit's region to the next one's, out to
    the one-sided component's region when it declares J-crossings.  An
    odd-degree curve cannot lie in a disk, so a walk that never leaves the
    outer oval adds one round trip out from its outermost visit.  The walk
    is closed, so it crosses each oval an even number of times.  Each visit
    meets its own oval twice."""
    visits = trace["visits"]
    regions = [_REGION[v["role"]] for v in visits]
    outer = inner = crossings = 0
    for k, arc in enumerate(trace["arcs"]):
        j = arc.get("jCrossings", 0)
        o, i = _cheapest_walk(regions[k], regions[(k + 1) % len(regions)],
                              j > 0)
        outer, inner, crossings = outer + o, inner + i, crossings + j
    if trace["degree"] % 2 and outer == 0:
        o, i = _cheapest_walk(min(regions), min(regions), True)
        outer, inner = outer + o, inner + i
    extras = sum(e["count"] for e in trace.get("extras", []))
    total = 2 * len(visits) + outer + inner + crossings + extras
    bound = 9 * trace["degree"]
    verdict = ("WITHIN" if total < bound
               else "SATURATED" if total == bound else "VIOLATION")
    return outer, inner, total, verdict


# ---------------------------------------------------------------------------
# six-point configurations

def cyclic_equal(a, b) -> bool:
    a, b = list(a), list(b)
    return len(a) == len(b) and any(a[k:] + a[:k] == b
                                    for k in range(len(a) or 1))


def _affine(p):
    x, y, z = p
    return Fraction(x, z), Fraction(y, z)


def _side(p, q, r) -> int:
    (px, py), (qx, qy), (rx, ry) = p, q, r
    v = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    return (v > 0) - (v < 0)


def triangles_disjoint(cfg: dict, t1, t2) -> bool:
    """Whether two triangles of affine points have disjoint interiors: some
    edge line of one leaves the other triangle on its closed far side."""
    pts = {k: _affine(p) for k, p in cfg.items()}
    for ta, tb in ((t1, t2), (t2, t1)):
        for k in range(3):
            a, b, c = pts[ta[k]], pts[ta[(k + 1) % 3]], pts[ta[(k + 2) % 3]]
            own = _side(a, b, c)
            if own and all(_side(a, b, pts[v]) * own <= 0 for v in tb):
                return True
    return False
