"""Point-based six-point classifier: an independent oracle for
`deepnest.configurations.classify_configuration`.

Where the library reads every decision from one table of 20 orientation
signs, this recomputes each one from the points: the pencil order at point 1
by sorting double angles, the hull by triangle-interior tests and ordering
around the hull's centroid, the regions by rays and lines, and the witness by
a separating-axis search over edge lines.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from deepnest.configurations import (
    _WITNESS_PAIRS,
    CASE1_PATTERN,
    CASE2_QUADRANGLE,
    CASE3_TRIANGLE,
    Classification,
    InvalidConfigurationError,
    Witness,
    sigma_shift,
)
from deepnest.geometry import (
    DegeneratePositionError,
    Triple,
    chart_orient,
    chart_rep,
    circle_sort,
    sign,
)
from chart import (
    chart_direction,
    dot,
    double_angle,
    inside_ccw_arc,
    line_through,
    point,
)


def in_triangle(p: Triple, a: Triple, b: Triple, c: Triple) -> bool:
    """Strict interior test in the chart complementing J."""
    s1 = chart_orient(a, b, p)
    s2 = chart_orient(b, c, p)
    s3 = chart_orient(c, a, p)
    return s1 == s2 == s3 and s1 != 0


def _triangles(labels: Sequence):
    n = len(labels)
    for i in range(n):
        for k in range(i + 1, n):
            for m in range(k + 1, n):
                yield (labels[i], labels[k], labels[m])


def _chart_centroid(reps: list) -> Triple:
    """Exact affine centroid of points off J, as a canonical triple."""
    cx = sum(Fraction(p[0], p[2]) for p in reps) / len(reps)
    cy = sum(Fraction(p[1], p[2]) for p in reps) / len(reps)
    return point(cx, cy)


def hull_cycle(pts: dict):
    """Counterclockwise hull label cycle + interior labels (exact, small n)."""
    labs = list(pts)
    for a in range(len(labs)):
        for b in range(a + 1, len(labs)):
            for c in range(b + 1, len(labs)):
                if chart_orient(pts[labs[a]], pts[labs[b]], pts[labs[c]]) == 0:
                    raise DegeneratePositionError(
                        f"collinear triple {labs[a]},{labs[b]},{labs[c]}")
    hull = []
    interior = []
    for k in labs:
        others = [o for o in labs if o != k]
        inside = False
        for t in _triangles(others):
            if in_triangle(pts[k], pts[t[0]], pts[t[1]], pts[t[2]]):
                inside = True
                break
        (interior if inside else hull).append(k)
    if len(hull) < 3:
        raise DegeneratePositionError("degenerate hull")
    # order hull counterclockwise around its own centroid (exact)
    center = _chart_centroid([pts[k] for k in hull])
    ordered = circle_sort(hull, key=lambda k: chart_direction(center, pts[k]))
    return ordered, interior


def _check_input(cfg: dict[int, Triple]) -> None:
    if set(cfg) != {1, 2, 3, 4, 5, 6}:
        raise InvalidConfigurationError("configuration needs labels 1..6")
    if len({cfg[k] for k in cfg}) != 6:
        raise InvalidConfigurationError("points must be distinct")


def sweep_order(cfg: dict[int, Triple]) -> list[int]:
    """Labels 2..6 in the order the pencil at point 1 meets them, from angle 0."""
    keyed = []
    for lab in (2, 3, 4, 5, 6):
        keyed.append((lab, double_angle(chart_direction(cfg[1], cfg[lab]))))
    try:
        ordered = circle_sort(keyed, key=lambda it: it[1])
    except DegeneratePositionError as e:
        raise InvalidConfigurationError(f"degenerate pencil at point 1: {e}")
    return [lab for lab, _ in ordered]


def _require_consecutive_sweep(cfg: dict[int, Triple]) -> None:
    order = sweep_order(cfg)
    i = order.index(2)
    rotated = order[i:] + order[:i]
    if rotated != [2, 3, 4, 5, 6]:
        raise InvalidConfigurationError(
            f"labels 2..6 are not consecutive under the pencil at 1: {order}")


def _hull_split(cfg: dict[int, Triple], labels=(2, 3, 4, 5, 6)):
    """Counterclockwise hull cycle (canonical rotation, smallest label first)
    and sorted interior labels."""
    pts = {k: chart_rep(cfg[k]) for k in labels}
    hull, interior = hull_cycle(pts)
    n = len(hull)
    canon = min(tuple(hull[i:] + hull[:i]) for i in range(n))
    return canon, tuple(sorted(interior))


def interiors_disjoint(t1, t2, cfg) -> bool:
    # separating-axis search over the six edge lines (exact)
    for ta, tb in ((t1, t2), (t2, t1)):
        for i in range(3):
            a, b = cfg[ta[i]], cfg[ta[(i + 1) % 3]]
            c = cfg[ta[(i + 2) % 3]]
            l = line_through(a, b)
            s_own = sign(dot(l, chart_rep(c)))
            if s_own == 0:
                raise DegeneratePositionError("degenerate principal triangle")
            sides = [sign(dot(l, chart_rep(cfg[v]))) for v in tb]
            if all(s * s_own <= 0 for s in sides):
                return True
    return False


def find_witness(cfg: dict[int, Triple]) -> Optional[Witness]:
    """First interior-disjoint pair of principal triangles, in canonical order."""
    for t1, t2 in _WITNESS_PAIRS:
        if interiors_disjoint(t1, t2, cfg):
            shared = tuple(sorted(set(t1) & set(t2)))
            return Witness(triangles=(t1, t2), shared=shared)
    return None


def _case2_region(cfg: dict[int, Triple]) -> str:
    """Quadrant of point 2 inside the quadrangle (3,5,4,6), cut by the
    diagonals [34] and [56]."""
    l34 = line_through(cfg[3], cfg[4])
    l56 = line_through(cfg[5], cfg[6])
    p2 = chart_rep(cfg[2])
    toward5 = sign(dot(l34, p2)) == sign(dot(l34, chart_rep(cfg[5])))
    toward4 = sign(dot(l56, p2)) == sign(dot(l56, chart_rep(cfg[4])))
    if toward5 and toward4:
        return "T4"
    if toward5:
        return "T3"
    if toward4:
        return "T2"
    return "T1"


_CASE3_SECTORS = {
    ("6", "2'"): "T1", ("2'", "3"): "T2", ("3", "6'"): "T3",
    ("6'", "2"): "T4", ("2", "3'"): "T5", ("3'", "6"): "T6",
}


def _case3_region(cfg: dict[int, Triple]) -> str:
    """Sector of point 5 among the six regions around 4 cut by the cevians
    from 2, 6, 3 through 4, numbered counterclockwise starting at the ray
    toward 6."""
    rays = []
    for v in (2, 6, 3):
        d = chart_direction(cfg[4], cfg[v])
        rays.append((str(v), d))
        rays.append((str(v) + "'", (-d[0], -d[1])))
    order = circle_sort(rays, key=lambda it: it[1])
    d5 = chart_direction(cfg[4], cfg[5])
    for i in range(6):
        a, b = order[i], order[(i + 1) % 6]
        if inside_ccw_arc(a[1], b[1], d5):
            return _CASE3_SECTORS[(a[0], b[0])]
    raise DegeneratePositionError("point 5 lies on a cevian through 4")


def classify_by_points(cfg: dict[int, Triple]) -> Classification:
    _check_input(cfg)
    _require_consecutive_sweep(cfg)
    hull, interior = _hull_split(cfg)

    if len(interior) == 0:
        if hull == CASE1_PATTERN:
            return Classification("case", case=1, relabel_shift=0,
                                  pattern=hull, interior=())
        return _contradiction(cfg, hull, ())

    if len(interior) == 1:
        k = (2 - interior[0]) % 5
        c = sigma_shift(cfg, k)
        quad, _ = _hull_split(c, labels=(3, 4, 5, 6))
        if quad == CASE2_QUADRANGLE:
            region = _case2_region(c)
            if region == "T4":
                return Classification(
                    "case", case=2, relabel_shift=k, pattern=quad,
                    interior=(2,), region="T4")
            return _contradiction(c, quad, (2,), relabel=k, region=region)
        return _contradiction(c, quad, (2,), relabel=k)

    # two interior points
    pair = None
    for l in (2, 3, 4, 5, 6):
        nxt = ((l - 2 + 1) % 5) + 2
        if set(interior) == {l, nxt}:
            pair = l
            break
    if pair is None:
        return _contradiction(cfg, hull, interior)
    k = (4 - pair) % 5
    c = sigma_shift(cfg, k)
    tri, _ = _hull_split(c, labels=(2, 3, 6))
    if tri == CASE3_TRIANGLE:
        region = _case3_region(c)
        if region == "T3":
            return Classification("case", case=3, relabel_shift=k,
                                  pattern=tri, interior=(4, 5), region="T3")
        return _contradiction(c, tri, (4, 5), relabel=k, region=region)
    return _contradiction(c, tri, (4, 5), relabel=k)


def _contradiction(cfg, pattern, interior, relabel=0, region=None):
    w = find_witness(cfg)
    if w is None:
        raise DegeneratePositionError(
            f"no triangle-pair witness for pattern {pattern} / {interior}")
    return Classification("contradiction", relabel_shift=relabel,
                          pattern=pattern, interior=interior,
                          region=region, witness=w)
