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

`parse_trace` checks a trace's rules in a fixed order and reports the first
one broken; the text of an error is built only for that rule.
"""

from __future__ import annotations

import json
from typing import Any, NamedTuple

REGION = {"median": 1, "inner": 2}
_TRACE_KEYS = frozenset({"degree", "visits", "arcs", "extras"})
_VISIT_KEYS = frozenset({"oval", "role", "node"})
_ARC_KEYS = frozenset({"jCrossings"})
_EXTRA_KEYS = frozenset({"count", "tag"})


class InvalidTraceError(ValueError):
    pass


class Visit(NamedTuple):
    oval: str
    role: str         # "median" or "inner"
    node: bool = False


class Arc(NamedTuple):
    j_crossings: int


class Extra(NamedTuple):
    count: int
    tag: str


class AuxCurveTrace(NamedTuple):
    degree: int
    visits: tuple[Visit, ...]
    arcs: tuple[Arc, ...]
    extras: tuple[Extra, ...] = ()


class BudgetReport(NamedTuple):
    per_oval: dict[str, int]
    o1_crossings: int
    o2_crossings: int
    j_crossings: int
    extras_total: int
    total: int
    bound: int
    verdict: str  # WITHIN | SATURATED | VIOLATION


def parse_trace(data: Any) -> AuxCurveTrace:
    if not isinstance(data, dict):
        raise InvalidTraceError("trace must be an object")
    if not data.keys() <= _TRACE_KEYS:
        raise InvalidTraceError("unknown keys in trace: %s"
                                % sorted(set(data) - _TRACE_KEYS))
    degree = data.get("degree")
    if not (isinstance(degree, int) and not isinstance(degree, bool)
            and degree >= 1):
        raise InvalidTraceError("degree must be a positive integer")

    raw_visits = data.get("visits")
    if not (isinstance(raw_visits, list) and raw_visits):
        raise InvalidTraceError("visits must be a non-empty list")
    visits = []
    for i, v in enumerate(raw_visits):
        if not isinstance(v, dict):
            raise InvalidTraceError("visit %d must be an object" % i)
        if not v.keys() <= _VISIT_KEYS:
            raise InvalidTraceError("unknown keys in visit %d" % i)
        oval = v.get("oval")
        if not (isinstance(oval, (str, int)) and not isinstance(oval, bool)):
            raise InvalidTraceError("visit %d: oval must be a label" % i)
        role = v.get("role")
        if not (isinstance(role, str) and role in REGION):
            raise InvalidTraceError(
                "visit %d: role must be median or inner" % i)
        node = v.get("node", False)
        if not isinstance(node, bool):
            raise InvalidTraceError("visit %d: node must be a boolean" % i)
        visits.append(Visit(str(oval), role, node))

    raw_arcs = data.get("arcs")
    if not isinstance(raw_arcs, list):
        raise InvalidTraceError("arcs must be a list")
    if len(raw_arcs) != len(visits):
        raise InvalidTraceError(
            "need exactly one arc per visit (arc i runs from visit i to "
            "visit i+1, cyclically)")
    arcs = []
    for i, a in enumerate(raw_arcs):
        if not isinstance(a, dict):
            raise InvalidTraceError("arc %d must be an object" % i)
        if not a.keys() <= _ARC_KEYS:
            raise InvalidTraceError("unknown keys in arc %d" % i)
        c = a.get("jCrossings", 0)
        if not (isinstance(c, int) and not isinstance(c, bool) and c >= 0):
            raise InvalidTraceError(
                "arc %d: jCrossings must be a nonnegative integer" % i)
        arcs.append(Arc(c))

    raw_extras = data.get("extras", [])
    if not isinstance(raw_extras, list):
        raise InvalidTraceError("extras must be a list")
    extras = []
    for i, e in enumerate(raw_extras):
        if not isinstance(e, dict):
            raise InvalidTraceError("extra %d must be an object" % i)
        if not e.keys() <= _EXTRA_KEYS:
            raise InvalidTraceError("unknown keys in extra %d" % i)
        count = e.get("count")
        if not (isinstance(count, int) and not isinstance(count, bool)
                and count >= 0):
            raise InvalidTraceError(
                "extra %d: count must be nonnegative" % i)
        tag = e.get("tag")
        if not (isinstance(tag, str) and tag.strip() != ""):
            raise InvalidTraceError(
                "extra %d: untagged intersection points are not allowed" % i)
        extras.append(Extra(count, tag))

    roles: dict[str, str] = {}
    node_counts: dict[str, int] = {}
    for i, v in enumerate(visits):
        if roles.get(v.oval, v.role) != v.role:
            raise InvalidTraceError(
                "visit %d: oval %s appears with two roles" % (i, v.oval))
        roles[v.oval] = v.role
        if v.node:
            node_counts[v.oval] = node_counts.get(v.oval, 0) + 1
    for oval, k in node_counts.items():
        if k % 2:
            raise InvalidTraceError(
                "nodal visits to oval %s must pair up, got %d" % (oval, k))

    return AuxCurveTrace(degree, tuple(visits), tuple(arcs), tuple(extras))


def load_trace(path: str) -> AuxCurveTrace:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidTraceError(f"trace is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise InvalidTraceError("trace nests too deeply to read") from exc
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
