"""Brute-force reference implementations the tests check the library against.

These deliberately share no code with the library's verifier: darkness is
recounted from the definition (a guard is blocked from p exactly when some
other guard stands strictly between), lines are regrouped pairwise, and
maxima are found by exhaustive evaluation at every combinatorial event.
Four exceptions: pair_hits_oracle runs the library's exact crossing test
on every pair, so that what it checks is the pair scan's filtering (the
darkness oracles check that crossing test itself); has_j_dark_oracle
walks those pairs row by row on the library's pieces, so that what it
checks is the order in which has_j_dark reads the shared candidates;
crossings_oracle walks them too, keeping the piece set of every crossing
where the library keeps only a total; and pieces_oracle cuts the
library's lines and integer halfplanes with one clip per piece, so that
what it checks is the one clip per line.
The line clipper and convex-polygon membership and validation, the
simple-polygon predicates (membership, validation, segment-inside,
visibility, depth), the convex hull, the sampler's glue (sub-piece
points, suspicious points, grid and random samples, deduplication), the
concurrent-rays scan and the scene scaling are the library's former
Fraction bodies; the library now decides them on integer-scaled
coordinates.
Slow on purpose; exact everywhere.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import groupby
from math import gcd, lcm
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from darkgallery.darkness import (
    DarknessWitness,
    GuardSet,
    _Analysis,
    _confirm,
    _guard_lines,
    _pair_hits,
    _point_key,
    _sub_piece_points,
)
from darkgallery.geometry import (
    ConvexPolygon,
    HalfplaneResult,
    HullResult,
    Point2,
    SimplePolygon,
    Wedge,
    collinear,
    convex_hull,
    line_intersection,
    Line,
    on_segment,
    orientation,
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
        clip = clip_line_oracle(anchor, d, region.halfplanes())
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
            if where_oracle(region, p) != "exterior":
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
            if where_oracle(region, p) != "exterior":
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


# --- scene scaling, one denominator at a time --------------------------------

def _coord_denominators(region, guards):
    dens = []
    if isinstance(region, ConvexPolygon):
        for v in region.vertices:
            dens.append(v.x.denominator)
            dens.append(v.y.denominator)
    elif isinstance(region, Wedge):
        dens.append(region.apex.x.denominator)
        dens.append(region.apex.y.denominator)
    elif region is not None:
        raise TypeError("region must be ConvexPolygon or Wedge, got %r" % (region,))
    for g in guards:
        dens.append(g.x.denominator)
        dens.append(g.y.denominator)
    return dens


def int_direction_oracle(d: Point2):
    """Reduce a rational direction to primitive integers, same orientation."""
    m = lcm(d.x.denominator, d.y.denominator)
    ix, iy = int(d.x * m), int(d.y * m)
    g = gcd(ix, iy)
    return ix // g, iy // g


def scene_oracle(region, guards):
    """(scale, gx, gy, halfplanes): the region and guards times the lcm of
    every coordinate denominator, by Fraction products, and the region's
    integer halfplanes a*x + b*y >= c.  The library's former scene body;
    the library now scales through geometry._Frame."""
    s = lcm(*_coord_denominators(region, guards))
    gx = [int(g.x * s) for g in guards]
    gy = [int(g.y * s) for g in guards]
    hps = []
    if isinstance(region, ConvexPolygon):
        vs = [(int(v.x * s), int(v.y * s)) for v in region.vertices]
        n = len(vs)
        for i in range(n):
            (px, py), (qx, qy) = vs[i], vs[(i + 1) % n]
            a = py - qy
            b = qx - px
            hps.append((a, b, a * px + b * py))
    elif isinstance(region, Wedge):
        ax, ay = int(region.apex.x * s), int(region.apex.y * s)
        # reduce edge directions to primitive integers, keeping their
        # orientation (the sign decides which side is inside)
        d1x, d1y = int_direction_oracle(region.dir1)
        d2x, d2y = int_direction_oracle(region.dir2)
        hps.append((-d1y, d1x, -d1y * ax + d1x * ay))
        hps.append((d2y, -d2x, d2y * ax - d2x * ay))
    return s, gx, gy, hps


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


def crossings_oracle(pieces):
    """(points, events) of every crossing of pieces from distinct lines:
    points maps each normalized point key (xn, yn, den) to the set of
    piece indices through it, in the order of its first hit; events maps
    a piece index to its crossing parameters as (num, den) pairs with
    den > 0, in hit order.  The library's former crossings() body, on
    pair_hits_oracle; the library now keeps only each key's total."""
    points = {}
    events = {}
    for i, j, un, vn, D in pair_hits_oracle(pieces):
        points.setdefault(_point_key(pieces[i], un, D), set()).update((i, j))
        events.setdefault(i, []).append((un, D))
        events.setdefault(j, []).append((vn, D))
    return points, events


def _witness(analysis, key, contr):
    """The DarknessWitness at the scaled key with the given contributions
    [(line_id, count)]: no rescan of the library's."""
    lines = _guard_lines([analysis.lines[line_id] for line_id, _ in contr], analysis.guards)
    return DarknessWitness(analysis.frame.point(key), sum(cnt for _, cnt in contr),
                           [(gl, cnt) for gl, (_, cnt) in zip(lines, contr)])


def has_j_dark_oracle(region, guards, j):
    """(found, witness) of has_j_dark by a lazy walk of the pair scan.

    Pieces whose own blocked count reaches j come first, then guard
    points.  Then the pairs are read row by row: a crossing's darkness is
    complete when the row of its lowest-indexed piece ends, so the
    crossings new in that row are checked then, and the walk stops at the
    first that reaches j.
    """
    analysis = _Analysis(region, GuardSet(guards))
    pieces = analysis.pieces
    for piece in pieces:
        if piece[7] >= j:
            key = _sub_piece_points(piece, ())[0]
            return True, _witness(analysis, key, analysis.darkness_at_scaled(*key)[1])
    for x, y in analysis.frame.ints:
        total, contr = analysis.darkness_at_scaled(x, y, 1)
        if total >= j:
            return True, _witness(analysis, (x, y, 1), contr)
    seen = set()
    for i, hits in groupby(pair_hits_oracle(pieces), key=itemgetter(0)):
        row = {}
        for _, k, un, _, D in hits:
            key = _point_key(pieces[i], un, D)
            if key not in seen:
                row.setdefault(key, {i}).add(k)
        for key, ids in row.items():
            contr = sorted([(pieces[k][8], pieces[k][7]) for k in ids])
            if sum([cnt for _, cnt in contr]) >= j:
                return True, _witness(analysis, key, contr)
        seen.update(row)
    return False, None


# --- convex regions over Fractions -------------------------------------------

def clip_line_oracle(anchor: Point2, d: Point2, halfplanes):
    """Clip the full line anchor + t*d (t in R) against closed Fraction
    halfplanes: (lo, hi) with None for an open end, or None when nothing
    is left.  The library's former clipper; it now clips integer lines
    (geometry._clip)."""
    lo = None  # type: Optional[Fraction]
    hi = None  # type: Optional[Fraction]
    for h in halfplanes:
        ln = h.line
        denom = ln.a * d.x + ln.b * d.y
        num = ln.c - (ln.a * anchor.x + ln.b * anchor.y)
        if denom == 0:
            if num > 0:  # line entirely outside this halfplane
                return None
            continue
        t = num / denom
        if denom > 0:
            if lo is None or t > lo:
                lo = t
        else:
            if hi is None or t < hi:
                hi = t
    if lo is not None and hi is not None and lo > hi:
        return None
    return (lo, hi)


def convex_where_oracle(P: ConvexPolygon, p: Point2) -> str:
    """'interior', 'boundary' or 'exterior' of p in the closed convex P,
    by the orientation of p against every edge: the library's former
    Fraction body."""
    on_edge = False
    for a, b in P.edges():
        s = orientation(a, b, p)
        if s < 0:
            return "exterior"
        if s == 0:
            on_edge = True
    return "boundary" if on_edge else "interior"


def where_oracle(region, p: Point2) -> str:
    """Where p lies in a ConvexPolygon (convex_where_oracle) or a Wedge
    (its own where, over Fractions)."""
    if isinstance(region, ConvexPolygon):
        return convex_where_oracle(region, p)
    return region.where(p)


def convex_polygon_error_oracle(vertices) -> Optional[str]:
    """The ValueError message ConvexPolygon(vertices) should raise, or
    None: the library's former Fraction validation (a left turn at every
    corner), then one winding.  With every turn left and below 180
    degrees, the edge direction turns ccw and passes from the lower half
    of the circle of directions (angles in [180, 360)) to the upper one
    exactly once per turn around."""
    vs = list(vertices)
    if len(vs) < 3:
        return "a polygon needs at least 3 vertices"
    n = len(vs)
    for i in range(n):
        o = orientation(vs[i], vs[(i + 1) % n], vs[(i + 2) % n])
        if o < 0:
            return "vertices must wind counterclockwise"
        if o == 0:
            return "degenerate corner at index %d (repeated or collinear vertices)" % ((i + 1) % n)
    edges = [vs[(i + 1) % n] - vs[i] for i in range(n)]
    upper = [e.y > 0 or (e.y == 0 and e.x > 0) for e in edges]
    if sum(not upper[i - 1] and upper[i] for i in range(n)) != 1:
        return "vertices wind around more than once (a star is not convex)"
    return None


def ray_exit_oracle(ax, ay, dx, dy, halfplanes):
    """Where {anchor + t*d : t >= 0} leaves the integer halfplanes
    ax+by >= c, as (num, den) with den > 0, or None when it never does;
    the anchor satisfies every halfplane.  The library's former per-piece
    clip."""
    hi_n = hi_d = None
    for a, b, c in halfplanes:
        den = a * dx + b * dy
        if den < 0:
            # t <= (c - (a*ax + b*ay)) / den, both sides of the fraction <= 0
            n, d = a * ax + b * ay - c, -den
            if hi_n is None or n * hi_d < hi_n * d:
                hi_n, hi_d = n, d
    return None if hi_n is None else (hi_n, hi_d)


def pieces_oracle(analysis):
    """The pieces of an analysis by the library's former loop: every dark
    portion re-anchored at a member guard and clipped on its own
    (ray_exit_oracle), the gaps between members too."""
    ints = analysis.frame.ints
    pieces = []
    for line_id, (ux, uy, c, members) in enumerate(analysis.lines):
        m = len(members)
        first, last = members[0][1], members[-1][1]
        spans = [
            (first, -ux, -uy, None, m - 1),
            (last, ux, uy, None, m - 1),
        ]
        if m >= 3:
            for (t0, i0), (t1, _) in zip(members, members[1:]):
                spans.append((i0, ux, uy, t1 - t0, m - 2))
        for anchor, dx, dy, length, blocked in spans:
            ax, ay = ints[anchor]
            hi = ray_exit_oracle(ax, ay, dx, dy, analysis.halfplanes)
            if hi is None:
                hin = hid = None
            else:
                hin, hid = hi
            hi_strict = False
            if length is not None and (hin is None or hin >= length * hid):
                hin, hid, hi_strict = length, 1, True  # open at far guard
            if hin == 0:
                continue  # the region ends at the anchoring guard
            pieces.append((ax, ay, dx, dy, hin, hid, hi_strict, blocked, line_id))
    return pieces


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
            if clip_line_oracle(anchor, ln.direction(), hs) is not None:
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


# --- simple polygons over Fractions -----------------------------------------

def simple_where_oracle(P, p: Point2) -> str:
    """'interior', 'boundary' or 'exterior' of p in the closed P: a
    boundary test, then crossing parity with a horizontal ray to +x."""
    if not isinstance(P, SimplePolygon):
        return where_oracle(P, p)
    for a, b in P.edges():
        if on_segment(p, a, b):
            return "boundary"
    inside = False
    for a, b in P.edges():
        if (a.y > p.y) != (b.y > p.y):
            t = (p.y - a.y) / (b.y - a.y)
            xc = a.x + t * (b.x - a.x)
            if xc > p.x:
                inside = not inside
    return "interior" if inside else "exterior"


def segments_intersect(a: Point2, b: Point2, c: Point2, d: Point2) -> bool:
    """Closed segments [a,b] and [c,d] share at least one point."""
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and on_segment(c, a, b):
        return True
    if o2 == 0 and on_segment(d, a, b):
        return True
    if o3 == 0 and on_segment(a, c, d):
        return True
    if o4 == 0 and on_segment(b, c, d):
        return True
    return False


def simple_polygon_error_oracle(vertices) -> Optional[str]:
    """The ValueError message SimplePolygon(vertices) should raise, or None."""
    vs = list(vertices)
    n = len(vs)
    if n < 3:
        return "a polygon needs at least 3 vertices"
    if len(set(vs)) != n:
        return "repeated vertex"
    for i in range(n):
        a, b = vs[i], vs[(i + 1) % n]
        if a == b:
            return "zero-length edge"
        for j in range(i + 1, n):
            c, d = vs[j], vs[(j + 1) % n]
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                if collinear(a, b, c) and collinear(a, b, d):
                    if (i + 1) % n == j:
                        into, out = b - a, d - c
                    else:
                        into, out = a - c, b - a
                    if into.dot(out) < 0:
                        return "adjacent edges overlap"
                continue
            if segments_intersect(a, b, c, d):
                return "edges %d and %d cross" % (i, j)
    area2 = sum((vs[i].cross(vs[(i + 1) % n]) for i in range(n)), Fraction(0))
    if area2 <= 0:
        return "vertices must wind counterclockwise"
    return None


def segment_inside_oracle(P, q: Point2, p: Point2) -> bool:
    """Does the open segment (q, p) stay inside the closed polygon?

    Collects every parameter where the segment meets a boundary edge and
    probes the midpoint of each gap.
    """
    if p == q:
        return simple_where_oracle(P, p) != "exterior"
    if isinstance(P, ConvexPolygon):
        return P.contains(p) and P.contains(q)
    d = p - q
    dd = d.dot(d)
    cuts = {Fraction(0), Fraction(1)}
    for a, b in P.edges():
        e = b - a
        den = d.cross(e)
        if den != 0:
            w = a - q
            t = w.cross(e) / den
            s = w.cross(d) / den
            if 0 <= t <= 1 and 0 <= s <= 1:
                cuts.add(t)
        elif e.cross(q - a) == 0:
            for end in (a, b):
                t = (end - q).dot(d) / dd
                if 0 < t < 1:
                    cuts.add(t)
    ts = sorted(cuts)
    for t0, t1 in zip(ts, ts[1:]):
        mid = t0 + (t1 - t0) / 2
        probe = Point2(q.x + mid * d.x, q.y + mid * d.y)
        if simple_where_oracle(P, probe) == "exterior":
            return False
    return True


def visible_oracle(P, guards: Sequence[Point2], q: Point2, p: Point2) -> bool:
    """The segment stays inside and no other guard is strictly between."""
    if not segment_inside_oracle(P, q, p):
        return False
    if p != q:
        for h in guards:
            if h != q and h != p and strictly_between(q, h, p):
                return False
    return True


def depth_at_sample_oracle(P, guards: Sequence[Point2], p: Point2) -> int:
    guards = list(guards)
    return sum(1 for q in guards if visible_oracle(P, guards, q, p))


# --- the convex hull over Fractions -------------------------------------------

def convex_hull_oracle(points: Sequence[Point2]) -> HullResult:
    """Monotone-chain convex hull over the Fraction points themselves."""
    pts = list(points)
    if not pts:
        return HullResult([], [], True)

    order = sorted(set(pts), key=lambda p: (p.x, p.y))
    if len(order) == 1:
        return HullResult([order[0]], ["corner"] * len(pts), True)

    def build(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and orientation(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = build(order)
    upper = build(reversed(order))
    corners = lower[:-1] + upper[:-1]
    degenerate = len(corners) < 3
    if degenerate:
        corners = [order[0], order[-1]]

    corner_set = set(corners)
    labels = []
    if degenerate:
        for p in pts:
            labels.append("corner" if p in corner_set else "edge")
        return HullResult(corners, labels, True)

    m = len(corners)
    for p in pts:
        if p in corner_set:
            labels.append("corner")
            continue
        lab = "interior"
        for i in range(m):
            if on_segment(p, corners[i], corners[(i + 1) % m]):
                lab = "edge"
                break
        labels.append(lab)
    return HullResult(corners, labels, False)


# --- the sampler's glue over Fractions ----------------------------------------

def sub_piece_points_oracle(piece, cuts):
    """_sub_piece_points with the cuts as a sorted set of Fractions and
    each midpoint a Fraction."""
    ax, ay, dx, dy, hin, hid = piece[:6]
    hi = None if hin is None else Fraction(hin, hid)
    ts = sorted({Fraction(n, d) for n, d in cuts})
    bounds = [Fraction(0)] + [t for t in ts if hi is None or t < hi]
    bounds.append(bounds[-1] + 2 if hi is None else hi)
    out = []
    for a, b in zip(bounds, bounds[1:]):
        t = (a + b) / 2
        out.append((ax * t.denominator + t.numerator * dx,
                    ay * t.denominator + t.numerator * dy, t.denominator))
    return out


def _inside(P, p: Point2) -> bool:
    return simple_where_oracle(P, p) != "exterior"


def suspicious_points_oracle(P, guards: Sequence[Point2]) -> List[Point2]:
    """Dark-ray crossing points and gap midpoints inside P, sorted by
    their Fraction (x, y): the analysis of the Fraction hull of P and the
    guards, with every piece subdivided by sub_piece_points_oracle and
    every candidate unscaled to a Point2."""
    gset = GuardSet(guards)
    hull = convex_hull_oracle(list(P.vertices) + list(gset.guards))
    analysis = _Analysis(ConvexPolygon(hull.corners), gset)
    points, events = crossings_oracle(analysis.pieces)
    keys = list(points) + [(x, y, 1) for x, y in analysis.frame.ints]
    for idx, piece in enumerate(analysis.pieces):
        keys += sub_piece_points_oracle(piece, events.get(idx, ()))
    cands = [analysis.frame.point(key) for key in keys]
    out = [p for p in cands if _inside(P, p)]
    out.sort(key=lambda v: (v.x, v.y))
    return out


def grid_points_oracle(P, resolution: int) -> List[Point2]:
    minx, miny, maxx, maxy = P.bounding_box()
    cands = [
        Point2(
            minx + (maxx - minx) * Fraction(i, resolution),
            miny + (maxy - miny) * Fraction(j, resolution),
        )
        for i in range(resolution + 1)
        for j in range(resolution + 1)
    ]
    return [p for p in cands if _inside(P, p)]


RANDOM_GRID = 1 << 20


def random_points_oracle(P, seed: int, count: int) -> List[Point2]:
    minx, miny, maxx, maxy = P.bounding_box()
    rng = random.Random(seed)
    out = []
    budget = 64 * count + 64
    while len(out) < count and budget > 0:
        budget -= 1
        x = minx + (maxx - minx) * Fraction(rng.randrange(RANDOM_GRID + 1), RANDOM_GRID)
        y = miny + (maxy - miny) * Fraction(rng.randrange(RANDOM_GRID + 1), RANDOM_GRID)
        pt = Point2(x, y)
        if _inside(P, pt):
            out.append(pt)
    return out


def sample_depth_oracle(P, guards: Sequence[Point2], sampler=None, depth=None):
    """The samples (point, depth) of sample_depth, in its order: the
    vertices, the guards, the suspicious points, then the sampler's
    points, deduplicated through a set of Point2.  depth(P, guards, p)
    defaults to depth_at_sample_oracle."""
    guards = list(GuardSet(guards).guards)
    pts = list(P.vertices) + guards + suspicious_points_oracle(P, guards)
    if sampler is not None and sampler[0] == "grid":
        pts += grid_points_oracle(P, sampler[1])
    elif sampler is not None and sampler[0] == "random":
        pts += random_points_oracle(P, sampler[1], sampler[2])
    elif sampler is not None:
        raise ValueError("unknown sampler %r" % (sampler,))
    unique = list(dict.fromkeys(pts))
    depth = depth or depth_at_sample_oracle
    return [(p, depth(P, guards, p)) for p in unique]


# --- dark-ray concurrency over a full plane-wide analysis ---------------------

def find_concurrent_dark_rays_oracle(guards):
    """find_concurrent_dark_rays from the unbounded pieces of the
    plane-wide analysis, which clips every gap piece too."""
    analysis = _Analysis(None, GuardSet.coerce(guards))
    rays = [p for p in analysis.pieces if p[4] is None]
    points = {}
    for i, j, un, _, D in _pair_hits(rays):
        points.setdefault(_point_key(rays[i], un, D), set()).update((rays[i][8], rays[j][8]))
    hits = [(analysis.frame.point(key), len(ids)) for key, ids in points.items()
            if len(ids) >= 3]
    if not hits:
        return None
    return min(hits, key=lambda hit: (hit[0].x, hit[0].y))


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
