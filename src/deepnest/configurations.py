"""Classification of six-point configurations and reducible-cubic event sequences.

A configuration is a dict {1..6 -> projective point} whose labels 2..6 occur
in consecutive order under the rotating line pencil at point 1.  Such a
configuration either belongs to one of three valid classes (up to the cyclic
relabeling sigma: 2->3->4->5->6->2) or is excluded, in which case two of the
five principal triangles 234, 345, 456, 562, 623 have disjoint interiors and
the pair is reported as an exact witness.  The pencil order, the hull, the
sub-region and the witness are each decided by signs of 3x3 determinants of
chart points, so the classifier reads them all, the hull of 2..6 one
pair at a time, from one table of the configuration's 20
orientation signs and those negated (40 entries), which a relabeling
permutes with one getter; the event sequence reads the table that the
classifier has already relabeled, instead of building another.
The witness search reads one edge plan per triangle pair, built at import:
per edge, its own slot and the slots of the other triangle's vertices off
it; `verify_witness` walks the same plan with orientations computed from
the points.
`tests/test_table_proof.py` enumerates every table six points can have:
496 are pencil-ordered, 26 of them valid (1, 10 and 15 per class), and
each of the other 470 has a witness.  No perturbation that the sampler
makes changes a sign of a base configuration, so `lemma3 --case` reads one
table per class and samples nothing; nor does one make a sign of any
template 0 or change its kind, so a sample is its template perturbed once,
and is never classified.  The pencil is tested by its six turns, ranked
only for an error, and the interior labels alone fix the shift sigma^k,
so all three classes are relabeled, shape-tested and region-tested on one
path.

The event sequence of a valid configuration lists, in pencil order, the five
reducible members of the cubic pencil through the six points (labeled "12".."16"
by their line component) together with the cyclic position order of the
remaining points on each conic component.  The event order is that of the
pencil of conics which a quadratic transformation based at points 1, 5, 4
makes of the cubics; each of its turns is a fixed sign times a product of
table signs (`conics.conic_pencil_events`), so no Cremona map, conic or
pencil parameter is built, and the direction in which it is read is fixed
per class, as is the direction of each position cycle (`_EVENT_READINGS`).
Hence the sequence, like the classification, is a function of the
orientation table.  The position orders need no conic:
central projection from point 1 maps the conic missing x onto the line
pencil at 1, and 1 itself onto its tangent.  So the other four points keep
their pencil order a0..a3, and 1 falls between a(i-1) and a(i) iff that pair
separates {1, a(i+1)} on the conic.  Seen from e = a(i+2) (indices mod 4),
iff [e a(i-1) 1][e a(i) a(i+1)][e a(i-1) a(i+1)][e a(i) 1] < 0: a cross-ratio
sign read from the orientation table, where each label occurs an even number
of times, so the chart's choice of sign cancels.
"""

from __future__ import annotations

from itertools import combinations
from operator import itemgetter
from typing import NamedTuple, Optional

from .geometry import (
    TABLE_KEYS,
    DegeneratePositionError,
    Triple,
    _hull_cycle,
    chart_orient,
    normalize,
    orientation_table,
    slot,
    turn_order,
)
from .conics import conic_pencil_events


class InvalidConfigurationError(ValueError):
    """Input points violate the labeling or genericity preconditions."""


# ---------------------------------------------------------------------------
# the three valid base configurations (canonical integer triples)

BASE_CONFIGURATIONS: dict[int, dict[int, Triple]] = {
    1: {1: (0, 0, 1), 2: (0, 1, 1), 3: (3, -4, 5), 4: (176, -57, -185),
        5: (35, 12, 37), 6: (3, 4, -5)},
    2: {1: (2, -1, -10), 2: (3, -3, -10), 3: (1, 0, 1), 4: (1, 0, -1),
        5: (0, 1, 1), 6: (0, 1, -1)},
    3: {1: (2, 1, -5), 2: (1, 0, 1), 3: (1, 1, -1), 4: (1, 0, -3),
        5: (5, 6, -15), 6: (1, -1, -1)},
}

# Reference event sequences for the three classes: (line label, position cycle).
REFERENCE_SEQUENCES: dict[int, list[tuple[str, str]]] = {
    1: [("16", "14523"), ("14", "12356"), ("12", "14365"),
        ("15", "12643"), ("13", "15426")],
    2: [("12", "14365"), ("15", "12643"), ("16", "12543"),
        ("13", "12456"), ("14", "12356")],
    3: [("16", "15234"), ("14", "15326"), ("15", "13264"),
        ("13", "14265"), ("12", "14365")],
}

# Direction calibration, frozen against the reference sequences.  The events
# are ranked from 12 with 13 before 16 (a constant turn); a class reads them
# backwards iff its reference has 12, 16, 13 in cyclic order.  The position
# cycles are read along (+1) or against (-1) the pencil at point 1.
DIGIT_DIRECTION = {
    (1, 6): +1, (1, 4): +1, (1, 2): -1, (1, 5): -1, (1, 3): -1,
    (2, 6): -1, (2, 5): -1, (2, 2): -1, (2, 4): +1, (2, 3): +1,
    (3, 2): -1, (3, 3): -1, (3, 5): -1, (3, 4): -1, (3, 6): +1,
}
_BACKWARDS = {case: [lab for lab, _ in seq if lab in ("12", "13", "16")]
              in (["12", "16", "13"], ["16", "13", "12"], ["13", "12", "16"])
              for case, seq in REFERENCE_SEQUENCES.items()}

PRINCIPAL_TRIANGLES = ((2, 3, 4), (3, 4, 5), (4, 5, 6), (5, 6, 2), (6, 2, 3))

# Canonical witness search order: adjacent triangle pairs, then skip pairs.
_WITNESS_PAIRS = tuple((PRINCIPAL_TRIANGLES[i], PRINCIPAL_TRIANGLES[(i + d) % 5])
                       for d in (1, 2) for i in range(5))


class Witness(NamedTuple):
    """Two principal triangles with disjoint interiors (exactly verified).
    Any two principal triangles share a side or a vertex, as two 3-arcs of
    a 5-cycle meet."""

    triangles: tuple[tuple[int, int, int], tuple[int, int, int]]
    shared: tuple[int, ...]

    @property
    def text(self) -> str:
        a = "".join(map(str, self.triangles[0]))
        b = "".join(map(str, self.triangles[1]))
        if len(self.shared) == 2:
            return f"{a}|{b}=[{self.shared[0]}{self.shared[1]}]"
        return f"{a}|{b}={{{self.shared[0]}}}"


class Classification(NamedTuple):
    verdict: str                      # "case" or "contradiction"
    case: Optional[int] = None        # 1, 2 or 3 when valid
    relabel_shift: int = 0            # sigma^k applied to reach canonical labels
    pattern: tuple = ()               # hull cycle diagnostics (canonical labels)
    interior: tuple = ()
    region: Optional[str] = None      # sub-region label for cases 2 and 3
    witness: Optional[Witness] = None

    @property
    def is_valid(self) -> bool:
        return self.verdict == "case"


# ---------------------------------------------------------------------------
# label bookkeeping

# _SIGMA[k][x] is the label x under sigma^k: 2..6 shift cyclically, 1 is fixed
_SIGMA = tuple((0, 1) + tuple((x + k) % 5 + 2 for x in range(5))
               for k in range(5))


def sigma_shift(cfg: dict[int, Triple], k: int) -> dict[int, Triple]:
    """Relabel by sigma^k: the point labeled x becomes labeled x+k (cyclically
    in 2..6); point 1 is fixed."""
    m = _SIGMA[k % 5]
    return {m[x]: cfg[x] for x in (1, 2, 3, 4, 5, 6)}


# _SHIFT_GETTERS[k] permutes an orientation table into the table under
# sigma^k: its [abc] reads the old [a'b'c'], where m = sigma^-k takes a to a'
_SHIFT_GETTERS = tuple(
    itemgetter(*[slot(m[a], m[b], m[c]) for a, b, c in TABLE_KEYS])
    for m in (_SIGMA[-k % 5] for k in range(5)))


def _shift_signs(signs: tuple, k: int) -> tuple:
    """The orientation table of sigma_shift(cfg, k), from the table of cfg.
    sigma^0 returns `signs` itself."""
    return _SHIFT_GETTERS[k](signs) if k else signs


def _shift_cycle(cycle: tuple, k: int) -> tuple:
    """A label cycle relabeled by sigma^k, from its smallest label."""
    out = [_SIGMA[k][x] for x in cycle]
    i = out.index(min(out))
    return tuple(out[i:] + out[:i])


def _check_input(cfg: dict[int, Triple]) -> None:
    if set(cfg) != {1, 2, 3, 4, 5, 6}:
        raise InvalidConfigurationError("configuration needs labels 1..6")
    if len({cfg[k] for k in cfg}) != 6:
        raise InvalidConfigurationError("points must be distinct")


# the turns (y, x, +1, slots of [12y], [1yx], [1x2]) for the pairs y < x
# of 3..6: together they read every [1ab]
_PENCIL_TURNS = tuple((y, x, +1, (slot(1, 2, y), slot(1, y, x), slot(1, x, 2)))
                      for y, x in combinations((3, 4, 5, 6), 2))


def _pencil_order(signs: tuple) -> list[int]:
    """Labels 2..6 in counterclockwise order of their lines through point 1,
    starting at 2.  The lines to a, b, c turn counterclockwise in that cyclic
    order iff [1ab][1bc][1ca] < 0, so the order is 2, 3, 4, 5, 6 iff every
    turn is negative (`tests/test_table_proof.py`); the classifier tests
    that, and ranks the order only for its error."""
    order = turn_order(signs, 2, _PENCIL_TURNS)
    if order is None:
        raise InvalidConfigurationError(
            "degenerate pencil at point 1: equal circular positions")
    return order


# ---------------------------------------------------------------------------
# exact triangle-pair witnesses

def _edge_plan(t1, t2) -> tuple:
    """Separating-axis search over the six edge lines, per edge a -> b of
    t1, then of t2: the slot of [abc], with c the edge's own third vertex,
    the slots of [abv] for the other triangle's vertices v other than a and
    b, and the labels (a, b, c) and those v.  The interiors are disjoint
    iff some edge has no v on the side of c."""
    plan = []
    for ta, tb in ((t1, t2), (t2, t1)):
        for a, b, c in (ta, ta[1:] + ta[:1], ta[2:] + ta[:2]):
            vs = tuple(v for v in tb if v != a and v != b)
            plan.append((slot(a, b, c), tuple(slot(a, b, v) for v in vs),
                         (a, b, c), vs))
    return tuple(plan)


# per pair of _WITNESS_PAIRS, in their canonical order: its Witness, and
# its edge plan
_WITNESS_PLANS = {
    (t1, t2): (Witness((t1, t2), tuple(sorted(set(t1) & set(t2)))),
               _edge_plan(t1, t2))
    for t1, t2 in _WITNESS_PAIRS}


def find_witness(signs: tuple) -> Optional[Witness]:
    """First interior-disjoint pair of principal triangles, in canonical order,
    read from a configuration's orientation table, which has no zero sign:
    the classifier stops at one first (`tests/test_table_proof.py`)."""
    for witness, edges in _WITNESS_PLANS.values():
        for own, others, _, _ in edges:
            s = signs[own]
            for i in others:
                if signs[i] == s:
                    break
            else:
                return witness
    return None


def verify_witness(cfg: dict[int, Triple], w: Witness) -> bool:
    """Recheck a witness of `find_witness` from the points themselves, not
    from a sign table: walk the labels of its edge plan and take each
    orientation from `chart_orient` on the labelled points."""
    for _, _, (a, b, c), vs in _WITNESS_PLANS[w.triangles][1]:
        s = chart_orient(cfg[a], cfg[b], cfg[c])
        if s == 0:
            raise DegeneratePositionError("degenerate principal triangle")
        if all(chart_orient(cfg[a], cfg[b], cfg[v]) != s for v in vs):
            return True
    return False


# ---------------------------------------------------------------------------
# sub-region labels

# (is 2 on 5's side of [34], is 2 on 4's side of [56]) -> quadrant
_CASE2_QUADRANTS = {(True, True): "T4", (True, False): "T3",
                    (False, True): "T2", (False, False): "T1"}
_CASE2_SLOTS = itemgetter(slot(3, 4, 2), slot(3, 4, 5), slot(5, 6, 2),
                          slot(5, 6, 4))


def _case2_region(signs: tuple) -> str:
    """Quadrant of point 2 inside the family-A quadrangle (3,5,4,6), cut by
    the diagonals [34] and [56].  T4 (between the rays toward 5 and toward 4)
    is the valid region, as the figure's geometry gives it (a text reference
    to T2 is a known slip); T1 is opposite T4; T3 shares the [34]-side with
    T4; T2 shares the [56]-side with T4."""
    s342, s345, s562, s564 = _CASE2_SLOTS(signs)
    return _CASE2_QUADRANTS[s342 == s345, s562 == s564]


# Point 4 lies inside the counterclockwise triangle 2, 6, 3, so its cevian
# rays run counterclockwise 2, 3', 6, 2', 3, 6' (v' points away from v), and
# the sides ([4v5] for v = 2, 6, 3) of point 5 name its sector.
_CASE3_SECTORS = {
    (+1, +1, -1): "T1", (-1, +1, -1): "T2", (-1, +1, +1): "T3",
    (-1, -1, +1): "T4", (+1, -1, +1): "T5", (+1, -1, -1): "T6",
}
_CASE3_SLOTS = itemgetter(slot(4, 2, 5), slot(4, 6, 5), slot(4, 3, 5))


def _case3_region(signs: tuple) -> str:
    """Sector of point 5 among the six regions around 4 cut by the cevians
    from 2, 6, 3 through 4, numbered counterclockwise starting at the ray
    toward 6.  T3 (between the rays toward 3 and away from 6) is valid."""
    return _CASE3_SECTORS[_CASE3_SLOTS(signs)]


# ---------------------------------------------------------------------------
# the classifier

CASE1_PATTERN = (2, 4, 6, 3, 5)
CASE2_QUADRANGLE = (3, 5, 4, 6)
CASE3_TRIANGLE = (2, 6, 3)


def classify_configuration(cfg: dict[int, Triple]) -> Classification:
    _check_input(cfg)
    return _classify_signs(orientation_table(cfg))[0]


# Per number of interior points: the valid case, its canonical interior
# labels and hull cycle, and its sub-region reader and valid sub-region
_CASE_SHAPES = (
    (1, (), CASE1_PATTERN, None, None),
    (2, (2,), CASE2_QUADRANGLE, _case2_region, "T4"),
    (3, (4, 5), CASE3_TRIANGLE, _case3_region, "T3"),
)

# sorted interior labels -> the k for which sigma^k makes them canonical;
# the empty interior is canonical under every shift, and k = 0 comes last
_INTERIOR_SHIFTS = {tuple(sorted(_SIGMA[-k % 5][x] for x in shape[1])): k
                    for shape in _CASE_SHAPES for k in (4, 3, 2, 1, 0)}


def _classify_signs(signs: tuple) -> tuple[Classification, tuple]:
    """The classification of a configuration with distinct points 1..6,
    from its orientation table alone, and that table relabeled by
    sigma^relabel_shift."""
    for _, _, _, (i, j, k) in _PENCIL_TURNS:
        if signs[i] * signs[j] * signs[k] >= 0:
            raise InvalidConfigurationError(
                "labels 2..6 are not consecutive under the pencil at 1: "
                f"{_pencil_order(signs)}")
    hull, interior = _hull_cycle(signs)
    k = _INTERIOR_SHIFTS.get(interior)
    if k is None:
        return _contradiction(signs, hull, interior), signs
    case, interior, shape, region_of, valid = _CASE_SHAPES[len(interior)]
    sc = _shift_signs(signs, k)
    hull = _shift_cycle(hull, k)
    if hull != shape:
        return _contradiction(sc, hull, interior, relabel=k), sc
    region = region_of and region_of(sc)
    if region != valid:
        return _contradiction(sc, hull, interior, relabel=k,
                              region=region), sc
    return Classification("case", case=case, relabel_shift=k, pattern=hull,
                          interior=interior, region=region), sc


def _contradiction(signs, pattern, interior, relabel=0, region=None):
    # every excluded table has a witness (tests/test_table_proof.py)
    return Classification("contradiction", relabel_shift=relabel,
                          pattern=pattern, interior=interior, region=region,
                          witness=find_witness(signs))


# ---------------------------------------------------------------------------
# event sequences


def _position_readings(x: int, d: int) -> tuple:
    # per gap i of a0..a3, the table slots of its cross-ratio sign (see the
    # module docstring) and the cycle that starts there, read along (d = +1)
    # or against (d = -1) the pencil at point 1
    a = [v for v in (2, 3, 4, 5, 6) if v != x]
    out = []
    for i in range(4):
        p, q, r, e = a[i - 1], a[i], a[(i + 1) % 4], a[(i + 2) % 4]
        cyc = "".join(map(str, a[i:] + a[:i]))
        out.append((slot(e, p, 1), slot(e, q, r), slot(e, p, r),
                    slot(e, q, 1), "1" + cyc[::d]))
    return tuple(out)


_POSITION_READINGS = {(x, d): _position_readings(x, d)
                      for x in (2, 3, 4, 5, 6) for d in (1, -1)}

# per class: whether it reads the events backwards, and per event label
# "1x" the position readings of x in the direction DIGIT_DIRECTION names
_EVENT_READINGS = {
    case: (_BACKWARDS[case],
           {f"1{x}": _POSITION_READINGS[x, DIGIT_DIRECTION[case, x]]
            for x in (2, 3, 4, 5, 6)})
    for case in REFERENCE_SEQUENCES}


def _position_cycle(signs: tuple, readings: tuple) -> str:
    """The cyclic order of the five points other than x on the conic
    through them, in the direction of `readings` (`_POSITION_READINGS[x,
    d]`), from the orientation table of a pencil-ordered configuration."""
    for i, j, k, l, cycle in readings:
        if signs[i] * signs[j] * signs[k] * signs[l] < 0:
            break
    # when the first three gaps fail, 1 lies in the fourth
    return cycle


class SequenceReport(NamedTuple):
    classification: Classification
    events: tuple[tuple[str, str], ...] = ()
    matches_reference: Optional[bool] = None


def reducible_cubic_sequence(cfg: dict[int, Triple]) -> SequenceReport:
    """Classify, then compute the five-event sequence for a valid configuration.

    The five reducible cubics come in the order of the conic pencil that
    the quadratic map based at points 1, 5, 4 makes of them, read from the
    table that the classifier has relabeled (`conics.conic_pencil_events`).
    """
    _check_input(cfg)
    cl, signs = _classify_signs(orientation_table(cfg))
    if not cl.is_valid:
        return SequenceReport(classification=cl)
    backwards, readings = _EVENT_READINGS[cl.case]
    order = conic_pencil_events(signs)
    if backwards:
        order.reverse()
    out = [(lab, _position_cycle(signs, readings[lab])) for lab in order]
    matches = cyclic_equal(out, REFERENCE_SEQUENCES[cl.case])
    return SequenceReport(classification=cl, events=tuple(out),
                          matches_reference=matches)


def cyclic_equal(a, b) -> bool:
    a, b = list(a), list(b)
    if len(a) != len(b):
        return False
    # only a rotation that starts at an item equal to b[0] can equal b
    return not a or any(a[i:] + a[:i] == b for i, v in enumerate(a)
                        if v == b[0])


# ---------------------------------------------------------------------------
# samplers: perturbations of stored templates

def perturb_configuration(cfg: dict[int, Triple], rng):
    """Move each point by at most 7/2000 in each affine coordinate."""
    out = {}
    for k, (x, y, z) in cfg.items():
        a, b = rng.randint(-7, 7), rng.randint(-7, 7)
        out[k] = normalize(2000 * x + a * z, 2000 * y + b * z, 2000 * z)
    return out


def sample_configuration(kind: str, rng):
    """A fresh configuration of the requested kind: "case1".."case3" or an
    excluded-pattern key from EXCLUSION_TEMPLATES, its stored template
    perturbed once.  No perturbation makes a sign of the template 0 or
    changes its kind (`tests/test_table_proof.py`), so the sample is not
    classified."""
    if kind in ("case1", "case2", "case3"):
        template = BASE_CONFIGURATIONS[int(kind[-1])]
    elif kind in EXCLUSION_TEMPLATES:
        template = EXCLUSION_TEMPLATES[kind]
    else:
        raise InvalidConfigurationError(f"unknown configuration kind {kind!r}")
    return perturb_configuration(template, rng)


def configuration_kind(cl: Classification) -> str:
    """Canonical sampler key for a classification outcome."""
    if cl.is_valid:
        return f"case{cl.case}"
    if cl.interior == ():
        return "convex-" + "".join(map(str, cl.pattern))
    if cl.interior == (2,):
        if cl.pattern == CASE2_QUADRANGLE:
            return f"quadrangle-A-{cl.region}"
        return "quadrangle-" + "".join(map(str, cl.pattern))
    if cl.interior == (4, 5):
        if cl.pattern == CASE3_TRIANGLE:
            return f"triangle-263-{cl.region}"
        return "triangle-" + "".join(map(str, cl.pattern))
    return "interior-" + "".join(map(str, cl.interior))


# Excluded-pattern templates, found by search, then frozen.  Keys follow
# configuration_kind(); each point is stored canonically relabeled, as the
# integer numerators of its affine coordinates over the common denominator 7.
_EXCLUSION_COORDINATES = {
    "convex-23654": {1: (-10, 20), 2: (56, 28), 3: (59, 57),
                     4: (-40, -52), 5: (-22, -19), 6: (8, 12)},
    "convex-23564": {1: (-51, -29), 2: (45, -12), 3: (60, 12),
                     4: (3, 0), 5: (45, 31), 6: (-54, 18)},
    "convex-23645": {1: (57, -14), 2: (-58, -32), 3: (14, -38),
                     4: (-6, 51), 5: (-39, 51), 6: (18, 5)},
    "convex-23546": {1: (-20, -21), 2: (55, -6), 3: (55, 58),
                     4: (-36, -54), 5: (-20, -19), 6: (47, -58)},
    "convex-23465": {1: (-2, 27), 2: (-50, 25), 3: (-25, 9),
                     4: (32, -8), 5: (-33, 58), 6: (40, -3)},
    "convex-23456": {1: (-45, 40), 2: (-5, 50), 3: (-24, 47),
                     4: (-51, 32), 5: (15, -56), 6: (34, -33)},
    "quadrangle-3456": {1: (55, -38), 2: (-20, -32), 3: (19, -57),
                        4: (17, 13), 5: (-37, -5), 6: (-54, -26)},
    "quadrangle-3465": {1: (-14, 33), 2: (-42, 28), 3: (-58, -45),
                        4: (0, -44), 5: (-48, 56), 6: (11, 25)},
    "quadrangle-3564": {1: (-30, -48), 2: (4, 0), 3: (-31, 1),
                        4: (-37, 55), 5: (0, -23), 6: (16, -4)},
    "quadrangle-3654": {1: (25, 37), 2: (-14, 13), 3: (-10, 6),
                        4: (-19, -33), 5: (-39, 56), 6: (-26, 45)},
    "quadrangle-3645": {1: (-56, 40), 2: (46, -9), 3: (51, 0),
                        4: (-54, 9), 5: (29, -53), 6: (-19, 13)},
    "quadrangle-A-T1": {1: (-4, -41), 2: (-28, 23), 3: (-41, 32),
                        4: (14, -53), 5: (-20, -39), 6: (28, 19)},
    "quadrangle-A-T2": {1: (47, 6), 2: (29, 5), 3: (-34, -37),
                        4: (60, 21), 5: (28, -23), 6: (-40, 27)},
    "quadrangle-A-T3": {1: (-9, -6), 2: (-25, 9), 3: (-59, 23),
                        4: (8, 35), 5: (-1, -19), 6: (-57, 52)},
    "interior-24": {1: (-25, -11), 2: (37, 13), 3: (49, 33),
                    4: (-29, 24), 5: (-59, 39), 6: (47, -58)},
    "interior-25": {1: (-7, 7), 2: (11, 45), 3: (11, 57),
                    4: (28, -50), 5: (-9, 10), 6: (-60, 16)},
    "interior-35": {1: (-47, 50), 2: (32, -8), 3: (18, 5),
                    4: (-24, 36), 5: (16, 20), 6: (19, 25)},
    "interior-36": {1: (-30, 27), 2: (44, 44), 3: (8, 52),
                    4: (-17, 60), 5: (19, -21), 6: (26, 5)},
    "interior-46": {1: (-37, 47), 2: (36, 49), 3: (-37, 5),
                    4: (-13, -16), 5: (7, -36), 6: (-5, -2)},
    "triangle-236": {1: (-3, -45), 2: (56, -3), 3: (-1, 60),
                     4: (-23, -4), 5: (-16, -30), 6: (-60, -52)},
    "triangle-263-T1": {1: (58, 43), 2: (-60, 57), 3: (-1, 34),
                        4: (-26, 23), 5: (-25, -9), 6: (-38, -34)},
    "triangle-263-T2": {1: (-53, -39), 2: (44, -59), 3: (-11, -18),
                        4: (-1, 33), 5: (-3, 36), 6: (-3, 54)},
    "triangle-263-T4": {1: (-21, -25), 2: (20, -52), 3: (-55, -44),
                        4: (-33, -39), 5: (-31, -45), 6: (-17, 30)},
    "triangle-263-T5": {1: (59, 55), 2: (46, -45), 3: (-41, -27),
                        4: (-21, -24), 5: (18, -31), 6: (49, -12)},
    "triangle-263-T6": {1: (-13, 17), 2: (-8, -60), 3: (-5, -8),
                        4: (-3, -12), 5: (5, -24), 6: (56, 5)},
}
EXCLUSION_TEMPLATES: dict[str, dict[int, Triple]] = {
    key: {k: normalize(x, y, 7) for k, (x, y) in pts.items()}
    for key, pts in _EXCLUSION_COORDINATES.items()}
