"""Region-graph recount of an auxiliary-curve trace: an independent oracle
for the nest-oval crossing tallies of `deepnest.bezout.audit`.

Where `audit` applies closed-form per-arc rules, this walks the region graph
(0 = outside the outer oval, 1 = between the nest ovals, 2 = inside the inner
oval) and takes the cheapest walk for each arc by exhaustive enumeration.
"""

from __future__ import annotations

from typing import Optional

from deepnest.bezout import REGION, AuxCurveTrace

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
