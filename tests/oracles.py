"""Brute-force reference implementations the tests check the library against.

These deliberately share no code with the library's verifier: darkness is
recounted from the definition (a guard is blocked from p exactly when some
other guard stands strictly between), lines are regrouped pairwise, and
maxima are found by exhaustive evaluation at every combinatorial event.
The one exception is pair_hits_oracle, which runs the library's exact
crossing test on every pair, so that what it checks is the pair scan's
filtering; the darkness oracles check that crossing test itself.
Slow on purpose; exact everywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from darkgallery.darkness import _confirm
from darkgallery.geometry import (
    ConvexPolygon,
    HalfplaneResult,
    Point2,
    _clip_line_by_halfplanes,
    collinear,
    convex_hull,
    line_intersection,
    Line,
    on_segment,
    strictly_between,
)


# --- darkness from the definition -------------------------------------------

def blocked_guards(guards: Sequence[Point2], p: Point2) -> List[Point2]:
    """Guards that cannot see p: some other guard is strictly between."""
    out = []
    for q in guards:
        if q == p:
            continue  # a guard sees itself
        for h in guards:
            if h != q and h != p and strictly_between(q, h, p):
                out.append(q)
                break
    return out


def darkness_oracle(guards: Sequence[Point2], p: Point2) -> int:
    return len(blocked_guards(guards, p))


def depth_oracle(guards: Sequence[Point2], p: Point2) -> int:
    return len(guards) - darkness_oracle(guards, p)


# --- pairwise line regrouping ------------------------------------------------

def _line_key(a: Point2, b: Point2) -> Tuple[int, int, int]:
    """Canonical integer (A, B, C) with A*x + B*y + C = 0 through a, b."""
    A = b.y - a.y
    B = a.x - b.x
    C = -(A * a.x + B * a.y)
    denoms = [f.denominator for f in (A, B, C)]
    scale = denoms[0] * denoms[1] // gcd(denoms[0], denoms[1])
    scale = scale * denoms[2] // gcd(scale, denoms[2])
    ai, bi, ci = (int(f * scale) for f in (A, B, C))
    g = gcd(gcd(abs(ai), abs(bi)), abs(ci))
    ai, bi, ci = ai // g, bi // g, ci // g
    if (ai, bi, ci) < (0, 0, 0):
        ai, bi, ci = -ai, -bi, -ci
    return (ai, bi, ci)


def group_lines_oracle(guards: Sequence[Point2]) -> Dict[Tuple[int, int, int], List[Point2]]:
    """Every guard pair assigned to its (maximal) carrier line."""
    groups: Dict[Tuple[int, int, int], set] = {}
    pts = list(guards)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            key = _line_key(pts[i], pts[j])
            groups.setdefault(key, set()).update((pts[i], pts[j]))
    return {k: sorted(v, key=lambda p: (p.x, p.y)) for k, v in groups.items()}


def dark_ray_crossings_oracle(guards: Sequence[Point2]) -> Dict[Point2, set]:
    """Every point where dark rays of distinct guard lines cross, mapped to
    the keys of the lines whose rays pass through it.

    A line's two dark rays leave its extreme members, open there, pointing
    away from the other members.  Every pair of rays is intersected.
    """
    rays = []
    for key, members in group_lines_oracle(guards).items():
        a, b = members[0], members[-1]
        rays.append((key, a, a - b))
        rays.append((key, b, b - a))
    hits: Dict[Point2, set] = {}
    for i in range(len(rays)):
        ki, pi, di = rays[i]
        for kj, pj, dj in rays[i + 1:]:
            if kj == ki:
                continue
            hit = line_intersection(Line.through(pi, pi + di), Line.through(pj, pj + dj))
            if isinstance(hit, Point2) and (hit - pi).dot(di) > 0 and (hit - pj).dot(dj) > 0:
                hits.setdefault(hit, set()).update((ki, kj))
    return hits


# --- exhaustive maximum darkness ---------------------------------------------

def _param_on(anchor: Point2, d: Point2, p: Point2) -> Fraction:
    return (p - anchor).dot(d) / d.dot(d)


def max_darkness_oracle(region, guards: Sequence[Point2]):
    """(max darkness, witness) by evaluating every event on every guard line.

    Darkness can only change where a guard line meets another guard line
    or a guard, so the maximum over the region is attained at one of:
    a guard point, a crossing of two guard lines, or the midpoint of a
    gap between consecutive events (region boundary counts as an event).
    """
    pts = list(guards)
    groups = group_lines_oracle(pts)
    lines = {
        key: (members[0], members[-1] - members[0], members)
        for key, members in groups.items()
    }

    candidates: List[Point2] = list(pts)
    if isinstance(region, ConvexPolygon):
        candidates.extend(region.vertices)
    else:
        candidates.append(region.apex)

    for key, (anchor, d, members) in lines.items():
        clip = region.clip_line(anchor, d)
        if clip is None:
            continue
        tlo, thi = clip
        events = [_param_on(anchor, d, m) for m in members]
        carrier = Line.through(anchor, anchor + d)
        for key2, (anchor2, d2, _members2) in lines.items():
            if key2 == key:
                continue
            other = Line.through(anchor2, anchor2 + d2)
            hit = line_intersection(carrier, other)
            if isinstance(hit, Point2):
                events.append(_param_on(anchor, d, hit))
        if tlo is not None:
            events = [t for t in events if t >= tlo] + [tlo]
        if thi is not None:
            events = [t for t in events if t <= thi] + [thi]
        events = sorted(set(events))
        reps = list(events)
        for u, v in zip(events, events[1:]):
            reps.append(u + (v - u) / 2)
        if thi is None and events:
            reps.append(events[-1] + 1)  # representative of the open end
        for t in reps:
            p = anchor + d * t
            if region.contains(p):
                candidates.append(p)

    best: Optional[Tuple[int, Point2]] = None
    for p in candidates:
        dark = darkness_oracle(pts, p)
        if best is None or dark > best[0] or (dark == best[0] and (p.x, p.y) < (best[1].x, best[1].y)):
            best = (dark, p)
    assert best is not None
    return best


# --- grid depth scan ----------------------------------------------------------

def grid_min_depth_oracle(region, guards: Sequence[Point2], resolution: int = 200) -> int:
    """Minimum of depth over the (resolution+1)^2 bounding-box lattice points
    that fall in the region.

    A point off every guard line has no blocked guard, hence depth exactly
    g; only lattice points ON some guard line need their darkness counted.
    Those are found with a generously-thresholded float scan whose hits are
    all confirmed in exact arithmetic before they contribute.
    """
    pts = list(guards)
    g = len(pts)
    minx, miny, maxx, maxy = region.bounding_box()
    xs = [minx + (maxx - minx) * Fraction(i, resolution) for i in range(resolution + 1)]
    ys = [miny + (maxy - miny) * Fraction(j, resolution) for j in range(resolution + 1)]
    fx = np.array([float(x) for x in xs])
    fy = np.array([float(y) for y in ys])
    span = max(abs(float(v)) for v in (minx, miny, maxx, maxy)) + 1.0

    best = g  # any in-region lattice point off all lines scores g
    seen = set()
    for key, members in group_lines_oracle(pts).items():
        A, B, C = key
        resid = A * fx[:, None] + B * fy[None, :] + C
        slack = 1e-6 * (abs(A) + abs(B)) * span + 1e-6 * abs(C) + 1e-6
        for i, j in zip(*np.nonzero(np.abs(resid) <= slack)):
            p = Point2(xs[i], ys[j])
            if p in seen:
                continue
            seen.add(p)
            if A * p.x + B * p.y + C != 0:
                continue  # float fuzz, not actually on the line
            if region.contains(p):
                best = min(best, depth_oracle(pts, p))
    return best


# --- boundary census recount ---------------------------------------------------

def census_oracle(P: ConvexPolygon, guards: Sequence[Point2]):
    """(edge weights, darkened flags per vertex per side, assumptions ok).

    Recounts the boundary bookkeeping from scratch: interior guards weigh 1,
    vertex guards 1/2 per incident edge; a vertex is darkened by an incident
    edge when two guards on that edge line hide it.  Returns the weight list,
    a per-vertex list of darkening edge indices, and whether every edge has
    an interior guard or both endpoint guards.
    """
    verts = list(P.vertices)
    n = len(verts)
    pts = list(guards)
    weights = []
    shrunken_ok = True
    per_edge_guards: List[List[Point2]] = []
    for i in range(n):
        u, v = verts[i], verts[(i + 1) % n]
        on_e = [q for q in pts if on_segment(q, u, v)]
        per_edge_guards.append(on_e)
        interior = [q for q in on_e if q != u and q != v]
        w = Fraction(len(interior))
        w += Fraction(1, 2) * sum(1 for q in on_e if q == u or q == v)
        weights.append(w)
        if not interior and not (u in on_e and v in on_e):
            shrunken_ok = False

    darkening_edges: List[List[int]] = [[] for _ in range(n)]
    for vi, v in enumerate(verts):
        for ei in (vi, (vi - 1) % n):  # the two incident edges
            hidden = False
            for q in per_edge_guards[ei]:
                if q == v:
                    continue
                for h in per_edge_guards[ei]:
                    if h != q and h != v and strictly_between(q, h, v):
                        hidden = True
            if hidden:
                darkening_edges[vi].append(ei)
    return weights, darkening_edges, shrunken_ok


# --- the pair scan over every pair -------------------------------------------

def pair_hits_oracle(pieces):
    """Every confirmed crossing (i, j, un, vn, D) of pieces from distinct
    lines, in increasing (i, j) order: _confirm on every pair of pieces
    whose line ids (the last tuple field) differ, with no prefilter."""
    R = len(pieces)
    for i in range(R - 1):
        li = pieces[i][8]
        for j in [j for j in range(i + 1, R) if pieces[j][8] != li]:
            hit = _confirm(pieces[i], pieces[j])
            if hit is not None:
                yield (i, j) + hit


# --- halfplane intersection by pairwise corners -------------------------------

def halfplane_intersection_oracle(halfplanes) -> HalfplaneResult:
    """Brute-force halfplane intersection, O(h^3).

    Every pairwise line crossing is tested against every halfplane; with no
    such corner, each line is clipped to decide feasibility; a region is
    unbounded when the boundary direction of some constraint recedes in
    all of them.  Fewer than 3 corners are listed in the order the pair
    scan meets them.
    """
    hs = list(halfplanes)
    if not hs:
        return HalfplaneResult("unbounded", [])

    # candidate corners: pairwise line intersections inside everything
    corners = []
    seen = set()
    n = len(hs)
    for i in range(n):
        for j in range(i + 1, n):
            p = line_intersection(hs[i].line, hs[j].line)
            if not isinstance(p, Point2):
                continue
            if p in seen:
                continue
            if all(h.contains(p) for h in hs):
                seen.add(p)
                corners.append(p)

    feasible = bool(corners)
    if not feasible:
        # no corners: region may still be a strip / halfplane / empty
        for i, h in enumerate(hs):
            ln = h.line
            anchor = _point_on_line(ln)
            if _clip_line_by_halfplanes(anchor, ln.direction(), hs) is not None:
                feasible = True
                break
    if not feasible:
        return HalfplaneResult("empty", [])

    # unbounded iff the recession cone contains a nonzero direction; any
    # such cone touches the boundary direction of one of the constraints
    for h in hs:
        d = h.line.direction()
        for cand in (d, -d):
            if all(hh.line.a * cand.x + hh.line.b * cand.y >= 0 for hh in hs):
                return HalfplaneResult("unbounded", _hull_or_all(corners))

    return HalfplaneResult("bounded", _hull_or_all(corners))


def _point_on_line(ln: Line) -> Point2:
    if ln.b != 0:
        return Point2(0, ln.c / ln.b)
    return Point2(ln.c / ln.a, 0)


def _hull_or_all(points):
    if len(points) < 3:
        return list(points)
    return convex_hull(points).corners


# --- misc ----------------------------------------------------------------------

def all_points_distinct(points: Sequence[Point2]) -> bool:
    return len(set(points)) == len(points)


def has_collinear_triple(points: Sequence[Point2]) -> bool:
    pts = list(points)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            for k in range(j + 1, len(pts)):
                if collinear(pts[i], pts[j], pts[k]):
                    return True
    return False
