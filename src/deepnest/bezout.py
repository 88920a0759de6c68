"""Intersection-budget audits for auxiliary curves through a deep nest.

An auxiliary curve of degree d meets a degree-9 curve in at most 9d points.
A *trace* records how a candidate auxiliary curve is routed through the
nest: which empty ovals it visits (each visit is worth two intersection
points, four at a node), and how its connecting arcs run relative to the
two nest ovals and the one-sided component.  The audit tallies the forced
intersections and compares them with the budget.

Regions are indexed by depth: 0 outside the outer nest oval (where the
one-sided component lives), 1 between the nest ovals ("median"), 2 inside
the inner one ("inner").  An arc with no declared one-sided crossings runs
directly, so it crosses the inner nest oval exactly when its endpoints lie
on opposite sides of it, and never needs to cross the outer one.  An arc
that does cross the one-sided component must pass through the outside
region, paying its way out and back in on both sides.  Crossings with the
one-sided component are counted only as declared.

Totals with distinct closed curves must be even; an odd-degree auxiliary
curve cannot be confined to a disk, which forces a minimum of two crossings
with any nest oval that would otherwise keep it inside one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional

REGION = {"median": 1, "inner": 2}


class InvalidTraceError(ValueError):
    pass


@dataclass(frozen=True)
class Visit:
    oval: str
    role: str         # "median" or "inner"
    node: bool = False


@dataclass(frozen=True)
class Arc:
    j_crossings: int


@dataclass(frozen=True)
class Extra:
    count: int
    tag: str


@dataclass(frozen=True)
class AuxCurveTrace:
    degree: int
    visits: tuple[Visit, ...]
    arcs: tuple[Arc, ...]
    extras: tuple[Extra, ...] = ()


@dataclass(frozen=True)
class BudgetReport:
    per_oval: dict[str, int]
    o1_crossings: int
    o2_crossings: int
    j_crossings: int
    extras_total: int
    total: int
    bound: int
    verdict: str  # WITHIN | SATURATED | VIOLATION


def _require(cond: bool, msg: str):
    if not cond:
        raise InvalidTraceError(msg)


def parse_trace(data: Any) -> AuxCurveTrace:
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


def load_trace(path: str) -> AuxCurveTrace:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidTraceError(f"trace is not valid JSON: {exc}") from exc
    return parse_trace(data)


def _arc_crossings(a: int, b: int, j: int) -> tuple[int, int]:
    """(outer, inner) nest-oval crossings forced on one arc between regions
    a and b with j declared one-sided crossings."""
    if j == 0:
        return 0, int((a == 2) != (b == 2))
    # the arc must reach region 0 and come back
    return int(a > 0) + int(b > 0), int(a == 2) + int(b == 2)


def audit(trace: AuxCurveTrace) -> BudgetReport:
    per_oval: dict[str, int] = {}
    for v in trace.visits:
        per_oval[v.oval] = per_oval.get(v.oval, 0) + 2

    o1 = o2 = j_total = 0
    n = len(trace.visits)
    for i, arc in enumerate(trace.arcs):
        a = REGION[trace.visits[i].role]
        b = REGION[trace.visits[(i + 1) % n].role]
        da, db = _arc_crossings(a, b, arc.j_crossings)
        o1 += da
        o2 += db
        j_total += arc.j_crossings

    if trace.degree % 2 == 1:
        # a one-sided curve cannot stay inside the outer oval's disk
        if o1 == 0:
            o1 = 2
        if o2 == 0 and all(v.role == "inner" for v in trace.visits):
            o2 = 2
    o1 += o1 % 2
    o2 += o2 % 2

    extras_total = sum(e.count for e in trace.extras)
    total = sum(per_oval.values()) + o1 + o2 + j_total + extras_total
    bound = 9 * trace.degree
    verdict = ("WITHIN" if total < bound
               else "SATURATED" if total == bound else "VIOLATION")
    return BudgetReport(per_oval=per_oval, o1_crossings=o1, o2_crossings=o2,
                        j_crossings=j_total, extras_total=extras_total,
                        total=total, bound=bound, verdict=verdict)


# ---------------------------------------------------------------------------
# region-graph recount (used as an independent check in the tests)

_ADJACENT = {0: (1,), 1: (0, 2), 2: (1,)}


def _min_path_crossings(a: int, b: int, need_outside: bool) -> tuple[int, int]:
    """Minimal (outer, inner) crossings of a region walk a -> b, forced
    through region 0 when need_outside, by exhaustive walk enumeration."""
    best: Optional[tuple[int, int, int]] = None
    stack = [(a, (a,))]
    while stack:
        pos, path = stack.pop()
        if pos == b and (not need_outside or 0 in path):
            o1 = sum(1 for x, y in zip(path, path[1:]) if {x, y} == {0, 1})
            o2 = sum(1 for x, y in zip(path, path[1:]) if {x, y} == {1, 2})
            cand = (o1 + o2, o1, o2)
            if best is None or cand < best:
                best = cand
        if len(path) < 6:
            for nxt in _ADJACENT[pos]:
                stack.append((nxt, path + (nxt,)))
    assert best is not None
    return best[1], best[2]


def recount_by_region_walk(trace: AuxCurveTrace) -> tuple[int, int]:
    """(outer, inner) crossings retallied by walking the region graph."""
    o1 = o2 = 0
    n = len(trace.visits)
    for i, arc in enumerate(trace.arcs):
        a = REGION[trace.visits[i].role]
        b = REGION[trace.visits[(i + 1) % n].role]
        da, db = _min_path_crossings(a, b, arc.j_crossings > 0)
        o1 += da
        o2 += db
    return o1, o2
