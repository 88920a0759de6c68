"""Affine chart helpers the test oracles share: rational points, random
orientation-preserving integer affine maps, lines, directions, arcs of the
direction circle, the rotating line pencil with its J-jumps, a conic's value
at a point from its coefficients (`conic_eval`), the conic pencil through
four points in integer steps, and canonical records of its events.

No command runs these.  The library decides every six-point question from
orientation signs (`deepnest.geometry.orientation_table`); the oracles in
`point_classifier.py`, the acceptance criteria and the kernel tests recompute
the same answers from the points through these functions.  J is the line
z = 0, as in `deepnest.geometry`.

`integer_pencil_events` returns the pencil's events as integer parameters on
unreduced generators, ranked by cross products.  On `cremona_pencil`, the
pencil that the quadratic map based at points 1, 5, 4 makes of Lemma 3's
reducible cubics, it gives the order that
`deepnest.conics.conic_pencil_events` reads from orientation signs.
`pencil_event_records` turns its events into `PencilEvent` records on the
canonical generators, whose member conics are built on read.
`reference_pencil_events` is the reference for those records: canonical
generators and parameters, a seen-dict for coincident events, and a circle
sort of the doubled parameter angles.

`orientation_signs_looped` is `deepnest.geometry.orientation_signs` as it
was before it became straight-line code for six points: one loop over the
triples of any number of points, which `orientation_table_looped` lays out
as `deepnest.geometry.orientation_table` does for any subset of the labels
1..6.  `hull_cycle_looped` is `deepnest.geometry._hull_cycle` as it was
before it was fixed to the points 2..6 and read each pair once: a scan of
the edges a -> b of any labels, read from such a table.
`find_witness_by_closure` is
`deepnest.configurations.find_witness` as it was before its edge plans: the
separating-axis search calls an orientation closure per table read.

`EXPECTED_WITNESSES` names the witnesses that the samples of each
excluded-pattern template of `deepnest.configurations` must produce.

`prohibit_per_call` is `deepnest.cases._prohibit` as it was before the
parity-generic part of a report was computed once per class and mode: it
builds the scenarios, solves them and filters the survivors on every call.
`sign_tuple` writes a sign case as the tests compare it: (eps1, eps2, eps3,
n), with eps4 before n when gamma is odd.

`parse_trace_eager`, `oval_walk`, `classify_deep_nest_twice` and
`is_m_curve_walked` are the trace and scheme readers as they were before an
error text was built only for a rule that fails and each top-level group was
walked once: every rule formats its message first, each node of a walk builds
a generator, and each group is walked twice.

`read_scheme_stepwise`, with `parse_scheme_stepwise` and
`parse_signed_stepwise` on top of it, is the scheme reader as it was before
token positions were found only for a rule that fails: it keeps a match
object and a position per token, read with its own copy of the token
pattern, not the library's.

`perfbench_module(name)` loads the benchmark's `perfbench/<name>.py` by
path, for the tests that take the benchmark's oracle or tracer as their
reference: those files import the standard library alone, and `perfbench`
is not a package.
"""

from __future__ import annotations

import importlib.util
import pathlib
import re
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Any, Iterable, NamedTuple, Optional, Sequence

from deepnest.bezout import (
    REGION,
    Arc,
    AuxCurveTrace,
    Extra,
    InvalidTraceError,
    Visit,
)
from deepnest.cases import (
    BETA_ZERO,
    NO_JUMPS_EVEN_GAMMA,
    NO_JUMPS_ODD_GAMMA,
    WITH_O1_JUMPS,
    FeasibleScheme,
    InfeasibleOrientationError,
    ProhibitReport,
    Scenario,
    ScenarioResult,
    SignCase,
    emit_complex_scheme,
    orevkov_filter,
    solve_scenario,
)
from deepnest.conics import Conic, _raw_pair, conic_matrix2, cremona
from deepnest.configurations import _WITNESS_PAIRS, Witness
from deepnest.geometry import (
    TABLE_KEYS,
    DegeneratePositionError,
    Triple,
    _raw_cross,
    chart_rep,
    circle_sort,
    det3,
    normalize,
    slot,
)
from deepnest.orientations import (
    SignedScheme,
    _signed_body,
    _signed_item,
    check_orevkov,
    check_rokhlin_mishachev,
    compute_stats,
    print_signed,
)
from deepnest.schemes import (
    DeepNestProfile,
    InadmissibleSchemeError,
    OvalGroup,
    RealScheme,
    SchemeSyntaxError,
    _canonical_children,
    _group,
    _ItemError,
    _print_group,
    genus_bound,
)


def point(x, y) -> Triple:
    """Affine point with exact rational coordinates -> canonical triple."""
    fx, fy = Fraction(x), Fraction(y)
    den = fx.denominator * fy.denominator // gcd(fx.denominator, fy.denominator)
    return normalize(int(fx * den), int(fy * den), den)


def affine_map(rng):
    """A random integer affine map with positive determinant, on triples."""
    while True:
        a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
        if a * d - b * c > 0:
            break
    e, f = rng.randint(-20, 20), rng.randint(-20, 20)
    return lambda p: normalize(a * p[0] + b * p[1] + e * p[2],
                               c * p[0] + d * p[1] + f * p[2], p[2])


def cross(u: Triple, v: Triple) -> Triple:
    return normalize(
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def line_through(p: Triple, q: Triple) -> Triple:
    if p == q:
        raise ValueError("need two distinct points")
    return cross(p, q)


def dot(l: Triple, p: Triple) -> int:
    return l[0] * p[0] + l[1] * p[1] + l[2] * p[2]


def chart_direction(frm: Triple, to: Triple) -> tuple[int, int]:
    """Direction (2-vector, exact) from `frm` to `to` in the chart complementing J."""
    a = chart_rep(frm)
    b = chart_rep(to)
    # Affine difference b/z_b - a/z_a, cleared of denominators (positive factor).
    dx = b[0] * a[2] - a[0] * b[2]
    dy = b[1] * a[2] - a[1] * b[2]
    if dx == 0 and dy == 0:
        raise ValueError("coincident points have no direction")
    g = gcd(abs(dx), abs(dy))
    return (dx // g, dy // g)


def double_angle(d: tuple[int, int]) -> tuple[int, int]:
    """Map a direction mod pi to a full-circle direction: angle doubling."""
    dx, dy = d
    return (dx * dx - dy * dy, 2 * dx * dy)


def inside_ccw_arc(a: tuple[int, int], b: tuple[int, int], m: tuple[int, int]) -> bool:
    """Is m strictly inside the counterclockwise arc from a to b (full circle)?"""
    cab = a[0] * b[1] - a[1] * b[0]
    cam = a[0] * m[1] - a[1] * m[0]
    cmb = m[0] * b[1] - m[1] * b[0]
    if cab == 0:
        if a == b:
            return False
        # arc of half turn: m inside iff strictly left of a
        return cam > 0
    if cab > 0:
        return cam > 0 and cmb > 0
    return cam > 0 or cmb > 0


# ---------------------------------------------------------------------------
# rotating line pencils and J-jumps

def line_pencil_sweep(base: Triple, targets: dict):
    """Counterclockwise cyclic order in which a line rotating about `base`
    meets the targets, with a flag per consecutive step: True iff the swept
    sector's segment of the two targets' line is the one crossing J (a J-jump).

    Returns (order, flags): flags[i] covers the step order[i] -> order[(i+1) % n].
    """
    labs = list(targets)
    if len(labs) < 2:
        raise ValueError("need at least 2 targets")
    if base[2] == 0:
        raise DegeneratePositionError("pencil base on the distinguished line")
    keyed = []
    for k in labs:
        if targets[k] == base:
            raise ValueError("target equals base")
        keyed.append((k, double_angle(chart_direction(base, targets[k]))))
    try:
        ordered = circle_sort(keyed, key=lambda it: it[1])
    except DegeneratePositionError:
        raise DegeneratePositionError("two targets collinear with the base")
    order = [k for k, _ in ordered]
    n = len(order)
    flags = [step_is_j_jump(base, targets[order[i]], targets[order[(i + 1) % n]])
             for i in range(n)]
    return order, flags


def step_is_j_jump(base: Triple, px: Triple, py: Triple) -> bool:
    """Does the pencil at `base`, rotating counterclockwise from the line
    through px to the line through py (consecutively), sweep the segment of
    line(px,py) that meets J?

    Exact criterion: the swept sector covers exactly one of the two segments;
    it covers the J-crossing one iff the direction of line(px,py) lies in the
    swept arc of directions.
    """
    a = double_angle(chart_direction(base, px))
    b = double_angle(chart_direction(base, py))
    m = double_angle(chart_direction(px, py))
    return inside_ccw_arc(a, b, m)


# ---------------------------------------------------------------------------
# orientation signs of any number of points, and the witness search that
# calls an orientation per edge

def orientation_signs_looped(pts: dict) -> tuple:
    """`deepnest.geometry.orientation_signs` as it was before it took
    exactly six points: one chart_rep per point and one determinant, written
    out, per triple, over any number of points."""
    out = []
    for (ax, ay, az), (bx, by, bz), (cx, cy, cz) in \
            combinations([chart_rep(p) for p in pts.values()], 3):
        d = (ax * (by * cz - bz * cy) - ay * (bx * cz - bz * cx)
             + az * (bx * cy - by * cx))
        out.append((d > 0) - (d < 0))
    return tuple(out)


def orientation_table_looped(pts: dict) -> tuple:
    """The orientation table of `pts` (any subset of the labels 1..6, in
    any order) in the layout of `deepnest.geometry.orientation_table`, from
    `orientation_signs_looped`: each triple's sign at its slot, its negation
    at the slot of the triple with its first two labels swapped, and 0 at
    every triple with a label not in `pts`."""
    table = [0] * len(TABLE_KEYS)
    for (a, b, c), s in zip(combinations(pts, 3),
                            orientation_signs_looped(pts)):
        table[slot(a, b, c)], table[slot(b, a, c)] = s, -s
    return tuple(table)


def hull_cycle_looped(signs: tuple, labels: Sequence):
    """Counterclockwise hull cycle of the points `labels`, starting at its
    smallest label, and their sorted interior labels, read from an
    orientation table: [ab] is a hull edge iff no other point lies to the
    right of a -> b.  The first triple of `labels`, in `combinations`
    order, with a zero sign raises."""
    labels = tuple(labels)
    for t in combinations(labels, 3):
        if signs[slot(*t)] == 0:
            raise DegeneratePositionError(
                "collinear triple {},{},{}".format(*t))
    succ = {}
    for a in labels:
        for b in labels:
            if b != a and all(signs[slot(a, b, c)] != -1 for c in labels
                              if c != a and c != b):
                succ[a] = b
                break
    cycle = [min(succ)]
    while succ[cycle[-1]] != cycle[0]:
        cycle.append(succ[cycle[-1]])
    return tuple(cycle), tuple(sorted(set(labels) - set(succ)))


def _interiors_disjoint(t1, t2, orient) -> bool:
    """Separating-axis search over the six edge lines: some edge line of one
    triangle has the other triangle's vertices on the side away from its own
    third vertex (or on the line).  `orient(a, b, c)` is the chart
    orientation of the labelled points."""
    for ta, tb in ((t1, t2), (t2, t1)):
        for i in range(3):
            a, b, c = ta[i], ta[(i + 1) % 3], ta[(i + 2) % 3]
            s_own = orient(a, b, c)
            if s_own == 0:
                raise DegeneratePositionError("degenerate principal triangle")
            for v in tb:
                if v != a and v != b and orient(a, b, v) == s_own:
                    break
            else:
                return True
    return False


def find_witness_by_closure(signs: tuple) -> Optional[Witness]:
    """`deepnest.configurations.find_witness` as it was before its edge
    plans: the same canonical pair order, with one call of an orientation
    closure per table read."""
    def orient(a, b, c):
        return signs[slot(a, b, c)]

    for t1, t2 in _WITNESS_PAIRS:
        if _interiors_disjoint(t1, t2, orient):
            shared = tuple(sorted(set(t1) & set(t2)))
            return Witness(triangles=(t1, t2), shared=shared)
    return None


# ---------------------------------------------------------------------------
# the conic pencil through four points, in integer steps

def integer_pencil_events(base: Sequence[Triple], extras=()):
    """The pencil of conics through four base points, in integer steps.

    `base` gives the four base points (positions 1..4 for labels); `extras`
    is a sequence of (label, point) pairs.  Returns the pencil's generators
    (l12 . X)(l34 . X) and (l13 . X)(l24 . X), each built from unreduced
    line brackets and multiplied by the sign of its first nonzero
    coefficient, so a positive multiple of its canonical conic, and its
    events as (kind, label, lam, mu) in pencil order: the three singular
    members ("singular", labeled like "12|34" by base positions) and one
    "through-point" event per extra.  (lam : mu) is taken with respect to
    these generators: "12|34" is (1 : 0), "13|24" is (0 : 1), and "14|23"
    and each extra lie at (-vb : va), with va and vb the generators
    evaluated at the diagonal point or the extra point, each as the product
    of its two line brackets, the first one sign-fixed.  The parameters are
    directions mod pi: stored with mu >= 0, they are ranked by cross
    products, counterclockwise from (1 : 0).  Collinear base
    points, a point on every member and two coincident events raise
    `DegeneratePositionError`, checked in that order.
    """
    if len(base) != 4:
        raise ValueError("a conic pencil needs 4 base points")
    for i, j, k in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        if det3(base[i], base[j], base[k]) == 0:
            raise DegeneratePositionError(
                f"base points {i + 1},{j + 1},{k + 1} are collinear")
    b1, b2, b3, b4 = base
    # each generator's first line carries its lead sign
    lines, gens = [], []
    for l, m in ((_raw_cross(b1, b2), _raw_cross(b3, b4)),
                 (_raw_cross(b1, b3), _raw_cross(b2, b4))):
        g = _raw_pair(l, m)
        if next(c for c in g if c) < 0:
            l, g = (-l[0], -l[1], -l[2]), tuple([-c for c in g])
        lines += l, m
        gens.append(g)
    ga, gb = gens
    (u0, u1, u2), (u3, u4, u5), (w0, w1, w2), (w3, w4, w5) = lines
    labels = ["12|34", "13|24", "14|23"]
    points = [_raw_cross(_raw_cross(b1, b4), _raw_cross(b2, b3))]
    for label, p in extras:
        labels.append(label)
        points.append(p)
    params = [(1, 0), (0, 1)]
    for x, y, z in points:
        va = (u0 * x + u1 * y + u2 * z) * (u3 * x + u4 * y + u5 * z)
        vb = (w0 * x + w1 * y + w2 * z) * (w3 * x + w4 * y + w5 * z)
        if va == 0 and vb == 0:
            raise DegeneratePositionError("point lies on every pencil member")
        # mu >= 0; at mu = 0 the event is 12|34's, reported just below
        params.append((-vb, va) if va > 0 else (vb, -va))
    # rank[j] counts the events before event j; a zero cross product is a
    # repeated parameter, reported for the first such pair in event order
    rank = [0] * len(params)
    for j in range(1, len(params)):
        xj, yj = params[j]
        for i in range(j):
            xi, yi = params[i]
            c = xi * yj - yi * xj
            if c == 0:
                raise DegeneratePositionError(
                    f"coincident pencil events {labels[i]} and {labels[j]}")
            if c > 0:
                rank[j] += 1
            else:
                rank[i] += 1
    events = [None] * len(params)
    for i, r in enumerate(rank):
        events[r] = ("singular" if i < 3 else "through-point", labels[i],
                     *params[i])
    return ga, gb, events


def cremona_pencil(c: dict):
    """The base points and marked points of the conic pencil that Lemma 3's
    quadratic map based at points 1, 5, 4 makes of the reducible cubics
    through a configuration `c`: 1 and the images of 2, 3, 6, then the
    marked points 5 for "14" and 4 for "15"."""
    qt = cremona(c[1], c[5], c[4])
    return ([c[1], *(qt.point(c[x]) for x in (2, 3, 6))],
            [("14", c[5]), ("15", c[4])])


# ---------------------------------------------------------------------------
# canonical records of the conic pencil's events

def conic_eval(q: Conic, p: Triple) -> int:
    """The conic's quadratic form at p, from its six coefficients."""
    x, y, z = p
    a, b, c, d, e, f = q
    return a * x * x + b * x * y + c * y * y + d * x * z + e * y * z + f * z * z


def conic_det2(q: Conic) -> int:
    """det(2M); zero exactly for degenerate (rank <= 2) conics."""
    return det3(*conic_matrix2(q))


class PencilEvent(NamedTuple):
    kind: str              # "singular" | "through-point"
    label: str
    parameter: tuple[int, int]   # canonical (lam : mu) on the parameter circle
    generators: tuple[Conic, Conic]   # the pencil's members 12|34 and 13|24

    @property
    def member(self) -> Conic:
        """The pencil member lam * 12|34 + mu * 13|24, built on read."""
        return pencil_member(*self.generators, *self.parameter)


def _pair_conic(l1: Triple, l2: Triple) -> Conic:
    return normalize(*_raw_pair(l1, l2))


def _canon_param(lam: int, mu: int) -> tuple[int, int]:
    if lam == 0 and mu == 0:
        raise ValueError("zero parameter")
    g = gcd(abs(lam), abs(mu))
    lam, mu = lam // g, mu // g
    if lam < 0 or (lam == 0 and mu < 0):
        lam, mu = -lam, -mu
    return lam, mu


def pencil_member(ga: Conic, gb: Conic, lam: int, mu: int) -> Conic:
    v = tuple(lam * ga[i] + mu * gb[i] for i in range(6))
    return normalize(*v)


def pencil_event_records(base, extras=()):
    """The events of `integer_pencil_events`, in its order and with its
    errors, as records on the canonical generators."""
    ga, gb, events = integer_pencil_events(base, extras)
    gens = tuple(normalize(*g) for g in (ga, gb))
    sa, sb = gcd(*ga), gcd(*gb)
    return [PencilEvent(kind, label, _canon_param(lam * sa, mu * sb), gens)
            for kind, label, lam, mu in events]


# ---------------------------------------------------------------------------
# the conic pencil through four points, ordered by a circle sort

def reference_pencil_events(base, extras=()):
    """`pencil_event_records`, computed on canonical conics: the same
    records, in the same order, with the same errors."""
    if len(base) != 4:
        raise ValueError("a conic pencil needs 4 base points")
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(j + 1, 4):
                if det3(base[i], base[j], base[k]) == 0:
                    raise DegeneratePositionError(
                        f"base points {i + 1},{j + 1},{k + 1} are collinear")
    l12, l34 = line_through(base[0], base[1]), line_through(base[2], base[3])
    l13, l24 = line_through(base[0], base[2]), line_through(base[1], base[3])
    l14, l23 = line_through(base[0], base[3]), line_through(base[1], base[2])
    gens = (_pair_conic(l12, l34), _pair_conic(l13, l24))

    def param_through(p: Triple) -> tuple[int, int]:
        va, vb = (conic_eval(g, p) for g in gens)
        if va == 0 and vb == 0:
            raise DegeneratePositionError("point lies on every pencil member")
        return _canon_param(-vb, va)

    events = [
        PencilEvent("singular", "12|34", (1, 0), gens),
        PencilEvent("singular", "13|24", (0, 1), gens),
        PencilEvent("singular", "14|23", param_through(cross(l14, l23)), gens),
    ] + [PencilEvent("through-point", label, param_through(p), gens)
         for label, p in extras]
    seen = {}
    for ev in events:
        if ev.parameter in seen:
            raise DegeneratePositionError(
                f"coincident pencil events {seen[ev.parameter]} and {ev.label}")
        seen[ev.parameter] = ev.label
    return circle_sort(events, key=lambda ev: double_angle(ev.parameter))


# Per excluded-pattern template, the witnesses its samples must produce
EXPECTED_WITNESSES: dict[str, tuple[str, ...]] = {
    "convex-23654": ("234|345=[34]",),
    "convex-23564": ("234|345=[34]",),
    "convex-23645": ("456|562=[56]",),
    "convex-23546": ("234|345=[34]",),
    "convex-23465": ("345|456=[45]",),
    "convex-23456": ("234|456={4}",),
    "quadrangle-3456": ("562|623=[26]",),
    "quadrangle-3465": ("345|456=[45]",),
    "quadrangle-3564": ("345|456=[45]",),
    "quadrangle-3654": ("562|623=[26]",),
    "quadrangle-3645": ("456|562=[56]", "234|345=[34]"),
    "quadrangle-A-T1": ("234|345=[34]",),
    "quadrangle-A-T2": ("234|345=[34]",),
    "quadrangle-A-T3": ("456|562=[56]",),
    "interior-24": ("234|345=[34]", "345|456=[45]"),
    "interior-25": ("345|456=[45]",),
    "interior-35": ("234|345=[34]", "456|562=[56]"),
    "interior-36": ("234|345=[34]",),
    "interior-46": ("234|345=[34]",),
    "triangle-236": ("234|345=[34]", "345|456=[45]"),
    "triangle-263-T1": ("234|345=[34]",),
    "triangle-263-T2": ("234|345=[34]",),
    "triangle-263-T4": ("345|456=[45]",),
    "triangle-263-T5": ("345|456=[45]",),
    "triangle-263-T6": ("234|345=[34]",),
}


def prohibit_per_call(beta: int, gamma: int, known: Iterable[int],
                      mode: str) -> ProhibitReport:
    """`prohibit` on the sizes of a validated nest: beta >= 0, gamma >= 1
    and beta + gamma = 26."""
    results = []
    survivors_all: list[SignCase] = []
    if beta == 0:
        scenarios = [Scenario(BETA_ZERO)]
    else:
        gamma_kind = (NO_JUMPS_ODD_GAMMA if gamma % 2
                      else NO_JUMPS_EVEN_GAMMA)
        # parity-generic: pin beta's parity but not its size
        scenarios = [Scenario(WITH_O1_JUMPS, parity=beta % 2),
                     Scenario(gamma_kind)]
    for scn in scenarios:
        sols = solve_scenario(scn, mode)
        surv = orevkov_filter(sols)
        results.append(ScenarioResult(scn, tuple(sols), tuple(surv)))
        survivors_all.extend(surv)

    feasible: list[FeasibleScheme] = []
    for case in survivors_all:
        try:
            signed = emit_complex_scheme(case, beta)
        except InfeasibleOrientationError:
            continue
        st = compute_stats(signed, "uniform")
        rm = check_rokhlin_mishachev(signed, "uniform", stats=st)
        orv = check_orevkov(signed, stats=st)
        feasible.append(FeasibleScheme(case, print_signed(signed), rm, orv))

    verdict = "PROHIBITED" if not survivors_all else "OPEN"
    return ProhibitReport(
        # print_scheme's spelling: at beta = 0 the median oval holds only
        # the inner nest oval
        scheme=(f"<J + 1<{beta} + 1<{gamma}>>>" if beta
                else f"<J + 1<1<{gamma}>>>"),
        beta=beta, gamma=gamma, mode=mode,
        results=tuple(results),
        verdict=verdict,
        new=(beta not in set(known)) if verdict == "PROHIBITED" else None,
        real_scheme_forbidden=(verdict == "OPEN" and not feasible),
        feasible=tuple(feasible),
    )


def sign_tuple(case: SignCase) -> tuple[int, ...]:
    """(eps1, eps2, eps3, n), or (eps1, eps2, eps3, eps4, n) when eps4 is
    set; an unset eps3 reads 0."""
    if case.eps4 is None:
        return (case.eps1, case.eps2, case.eps3 or 0, case.n)
    return (case.eps1, case.eps2, case.eps3 or 0, case.eps4, case.n)


# ---------------------------------------------------------------------------
# the readers as they were before error texts were built only on failure and
# each scheme tree was walked once per group

def _require(cond: bool, msg: str):
    if not cond:
        raise InvalidTraceError(msg)


def parse_trace_eager(data: Any) -> AuxCurveTrace:
    """`deepnest.bezout.parse_trace` as it was: every rule formats its
    message, and builds the key set it checks, before the rule is tested."""
    _require(isinstance(data, dict), "trace must be an object")
    _require(set(data) <= {"degree", "visits", "arcs", "extras"},
             "unknown keys in trace: %s"
             % sorted(set(data) - {"degree", "visits", "arcs", "extras"}))
    degree = data.get("degree")
    _require(isinstance(degree, int) and not isinstance(degree, bool)
             and degree >= 1, "degree must be a positive integer")

    raw_visits = data.get("visits")
    _require(isinstance(raw_visits, list) and raw_visits,
             "visits must be a non-empty list")
    visits = []
    for i, v in enumerate(raw_visits):
        _require(isinstance(v, dict), f"visit {i} must be an object")
        _require(set(v) <= {"oval", "role", "node"},
                 f"unknown keys in visit {i}")
        oval = v.get("oval")
        _require(isinstance(oval, (str, int)) and not isinstance(oval, bool),
                 f"visit {i}: oval must be a label")
        role = v.get("role")
        _require(isinstance(role, str) and role in REGION,
                 f"visit {i}: role must be median or inner")
        node = v.get("node", False)
        _require(isinstance(node, bool), f"visit {i}: node must be a boolean")
        visits.append(Visit(str(oval), role, node))

    raw_arcs = data.get("arcs")
    _require(isinstance(raw_arcs, list), "arcs must be a list")
    _require(len(raw_arcs) == len(visits),
             "need exactly one arc per visit (arc i runs from visit i to "
             "visit i+1, cyclically)")
    arcs = []
    for i, a in enumerate(raw_arcs):
        _require(isinstance(a, dict), f"arc {i} must be an object")
        _require(set(a) <= {"jCrossings"}, f"unknown keys in arc {i}")
        c = a.get("jCrossings", 0)
        _require(isinstance(c, int) and not isinstance(c, bool) and c >= 0,
                 f"arc {i}: jCrossings must be a nonnegative integer")
        arcs.append(Arc(c))

    raw_extras = data.get("extras", [])
    _require(isinstance(raw_extras, list), "extras must be a list")
    extras = []
    for i, e in enumerate(raw_extras):
        _require(isinstance(e, dict), f"extra {i} must be an object")
        _require(set(e) <= {"count", "tag"}, f"unknown keys in extra {i}")
        count = e.get("count")
        _require(isinstance(count, int) and not isinstance(count, bool)
                 and count >= 0, f"extra {i}: count must be nonnegative")
        tag = e.get("tag")
        _require(isinstance(tag, str) and tag.strip() != "",
                 f"extra {i}: untagged intersection points are not allowed")
        extras.append(Extra(count, tag))

    roles: dict[str, str] = {}
    node_counts: dict[str, int] = {}
    for i, v in enumerate(visits):
        if v.oval in roles:
            _require(roles[v.oval] == v.role,
                     f"visit {i}: oval {v.oval} appears with two roles")
        roles[v.oval] = v.role
        if v.node:
            node_counts[v.oval] = node_counts.get(v.oval, 0) + 1
    for oval, k in node_counts.items():
        _require(k % 2 == 0,
                 f"nodal visits to oval {oval} must pair up, got {k}")

    return AuxCurveTrace(degree, tuple(visits), tuple(arcs), tuple(extras))


def oval_walk(self: OvalGroup) -> list:
    """`OvalGroup._walk` as it was, with a generator per node: (group, its
    depth, how many copies of it there are), every group of the tree once."""
    walk = [(self, 1, self.count)]
    for g, depth, copies in walk:   # the list grows as it is read
        walk.extend((c, depth + 1, copies * c.count) for c in g.body or ())
    return walk


def _depth(g: OvalGroup) -> int:
    return max(depth for _, depth, _ in oval_walk(g))


def is_m_curve_walked(s: RealScheme) -> bool:
    """`deepnest.schemes.is_m_curve`, counting ovals through `oval_walk`."""
    ovals = sum(copies for g in s.groups for _, _, copies in oval_walk(g))
    return ovals + s.pseudoline == genus_bound(s.degree) + 1


def classify_deep_nest_twice(s: RealScheme) -> Optional[DeepNestProfile]:
    """`deepnest.schemes.classify_deep_nest` as it was, walking each
    top-level group twice; `g.depth()` and `g._walk()` are read through
    `oval_walk`."""
    for g in s.groups:
        if _depth(g) > 3:
            raise InadmissibleSchemeError("oval nested beyond depth 3",
                                          _print_group(_deep_child(g)))
    deep = [g for g in s.groups if _depth(g) == 3]
    if not deep:
        return None
    if len(deep) > 1 or deep[0].count > 1:
        raise InadmissibleSchemeError("two disjoint depth-3 nests",
                                      _print_group(deep[0]))
    outer = deep[0]
    alpha = 0
    for g in s.groups:
        if g is outer:
            continue
        if g.body is not None:
            raise InadmissibleSchemeError(
                "non-empty oval outside the nest", _print_group(g))
        alpha += g.count
    beta = 0
    inner = None
    for g in outer.body:
        if g.body is None:
            beta += g.count
        elif inner is None and g.count == 1:
            inner = g
        else:
            raise InadmissibleSchemeError(
                "second non-empty oval inside the outer nest oval",
                _print_group(g))
    assert inner is not None  # depth()==3 guarantees a depth-2 child
    gamma = 0
    for g in inner.body:
        assert g.body is None  # depth bound already enforced
        gamma += g.count
    return DeepNestProfile(alpha=alpha, beta=beta, gamma=gamma)


def _deep_child(g: OvalGroup) -> OvalGroup:
    """A witness oval at excessive depth: the first group at depth 4 that
    still contains ovals, or failing one, the first such group at depth 3."""
    walk = oval_walk(g)
    return next(h for d in (4, 3) for h, depth, _ in walk
                if depth == d and h.body is not None)


# ---------------------------------------------------------------------------
# the scheme reader as it was before positions were found only on failure

# the library's token pattern as it was, with three groups: a count's
# digits, its sign, or any other character
_STEPWISE_TOKEN = re.compile(r"\s*(?:([0-9]+)(?:_([+-]))?|(\S))")


def read_scheme_stepwise(text: str, degree: int, node) -> tuple[bool, list]:
    """`deepnest.schemes.read_scheme` as it was: a match object and a
    position per token, and node(count, sign, body, position) raising
    SchemeSyntaxError itself.  A token is (kind, position, digits, sign).
    It keeps its own copy of the token pattern, `_STEPWISE_TOKEN`: an oracle
    that read the library's `_TOKEN` could not see a fault in it."""
    # kind is "count", "end" or the character
    tokens = [(m[3], m.start(3), "", None) if m[1] is None
              else ("count", m.start(1), m[1], m[2])
              for m in _STEPWISE_TOKEN.finditer(text)]
    tokens.append(("end", len(text), "", None))
    max_depth = degree // 2
    kind, at = tokens[0][:2]
    if kind != "<":
        raise SchemeSyntaxError("expected '<'", at)
    saw_j = False
    items: list = []     # the body being read
    open_: list = []     # (count, sign, position, enclosing body) per oval
    i = 1
    while True:
        kind, at, digits, sign = tokens[i]
        i += 1
        if kind == "J":
            if open_:
                raise SchemeSyntaxError(
                    "the one-sided component cannot lie inside an oval",
                    at + 1)
            if saw_j:
                raise SchemeSyntaxError("duplicate one-sided component",
                                        at + 1)
            saw_j = True
        elif kind == "count":
            if digits[0] == "0" and len(digits) > 1:
                raise SchemeSyntaxError("counts may not have leading zeros",
                                        at)
            count = int(digits)
            opens = tokens[i][0] == "<"
            if len(open_) >= max_depth and (count or opens):
                raise SchemeSyntaxError(
                    f"nest deeper than degree // 2 = {max_depth}", at)
            if opens:
                open_.append((count, sign, at, items))
                items = []
                i += 1
                continue
            item = node(count, sign, None, at)
            if item is not None:
                items.append(item)
        else:
            raise SchemeSyntaxError("expected an item", at)
        kind, at = tokens[i][:2]
        i += 1
        while kind == ">" and open_:
            count, sign, start, enclosing = open_.pop()
            item = node(count, sign, items, start)
            items = enclosing
            if item is not None:
                items.append(item)
            kind, at = tokens[i][:2]
            i += 1
        if kind == ">":
            break
        if kind != "+":
            raise SchemeSyntaxError("expected '>'", at)
    kind, at = tokens[i][:2]
    if kind != "end":
        raise SchemeSyntaxError("trailing input after scheme", at)
    if degree % 2 == 1 and not saw_j:
        raise SchemeSyntaxError("odd-degree scheme must contain J", 0)
    if degree % 2 == 0 and saw_j:
        raise SchemeSyntaxError("even-degree scheme cannot contain J", 0)
    return saw_j, items


def _placed(build):
    """A library item builder as `read_scheme_stepwise` calls it: the sign
    None for none, and its complaint raised at the item's position."""
    def node(count, sign, body, at):
        try:
            return build(count, sign or "", body)
        except _ItemError as exc:
            raise SchemeSyntaxError(str(exc), at) from None
    return node


def parse_scheme_stepwise(text: str, degree: int) -> RealScheme:
    saw_j, items = read_scheme_stepwise(text, degree, _placed(_group))
    return RealScheme(degree, saw_j, _canonical_children(items)[1])


def parse_signed_stepwise(text: str, degree: int) -> SignedScheme:
    saw_j, items = read_scheme_stepwise(text, degree, _placed(_signed_item))
    return SignedScheme(degree, saw_j, *_signed_body(items))


# ---------------------------------------------------------------------------
# the benchmark's modules, read by path

def perfbench_module(name: str):
    """`perfbench/<name>.py`, loaded as a module named perfbench_<name>."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", path / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
