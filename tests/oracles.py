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
what it checks is the one clip per line.  Four more call library code
that they do not check: boundary_census_oracle asks the library's
has_j_dark for its 2-dark reason, fisk_plan_oracle colours with the
library's three_color, which reads indices only, place_cluster_oracle
sizes its arc with the library's _pow2_under, and
find_collinear_triple, a diagnostic the package no longer exports,
reads the library's collinear groups.
The point helpers (collinear, strictly_between, on_segment, midpoint,
lerp), the line clipper, convex-polygon membership and validation and
wedge membership, the simple-polygon predicates (membership, validation,
segment-inside, visibility, depth), the triangulation, vertex cones,
clearances and arc placer of the coloring cover, the comb's guard-line
test, the boundary census, the convex hull, the sampler's
glue (sub-piece points, suspicious points, grid and random samples,
deduplication), the concurrent-rays scan, the scene scaling, the
general-position stream (placer, restarts and interior anchor) and the
4n-2 scaffold are the library's former Fraction bodies; the library now
decides them on integer-scaled coordinates.  group_collinear_oracle is
the library's former collinear grouping, one dict of member sets updated
per guard pair; the library now groups per guard.  pair_hits,
sub_piece_points and candidates_oracle are the sampler's former walk:
every hit of the pair scan confirmed, every piece's cuts sorted exactly
and cut into exact midpoints; the library now reads the scan's float
parameters and builds a point only where it is read.  piece_columns
is the library's former _piece_boxes and _end_classes, one loop over the
piece tuples, and clip_lines_ends the former exact loop of _clip_lines;
the library now builds the columns from guard indices and the clip
pass's float parameters, and a piece's tuple only where it is read.
Slow on purpose; exact everywhere.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import groupby
from math import gcd, inf, lcm
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from darkgallery.construct import (
    _MAX_EPS_RETRIES,
    _SNAP_BITS,
    _SNAP_STEPS,
    ConstructionScaffold,
    _floor_pow2,
    _Infeasible,
    zigzag,
)
from darkgallery._filter import _floats, _nearest, _rounding_bound
from darkgallery.darkness import (
    BoundaryCensus,
    DarknessWitness,
    GuardSet,
    _Analysis,
    _clip_lines,
    _Columns,
    _confirm,
    _crossing_key,
    _group_collinear,
    _guard_lines,
    _pair_scan,
    _piece_point,
    _point_key,
    has_j_dark,
    max_darkness,
)
from darkgallery.geometry import (
    ConvexPolygon,
    Halfplane,
    HalfplaneResult,
    HullResult,
    Point2,
    SimplePolygon,
    Wedge,
    _forward_step,
    _homogeneous,
    _integers,
    as_rat,
    centroid,
    convex_hull,
    cross,
    halfplane_intersection,
    line_intersection,
    Line,
    orientation,
)
from darkgallery.simple import MOUTH_LEVEL, _pow2_under, three_color


# --- Fraction point helpers ---------------------------------------------------
# The library's former helpers, kept here as reference arithmetic: the
# library decides these questions on integers.

def collinear(o: Point2, a: Point2, b: Point2) -> bool:
    return cross(o, a, b) == 0


def strictly_between(a: Point2, p: Point2, b: Point2) -> bool:
    """True when p lies on the open segment (a, b)."""
    if not collinear(a, p, b):
        return False
    d = b - a
    t = (p - a).dot(d)
    return 0 < t < d.dot(d)


def on_segment(p: Point2, a: Point2, b: Point2) -> bool:
    """True when p lies on the closed segment [a, b]."""
    if not collinear(a, p, b):
        return False
    d = b - a
    if d.is_zero():
        return p == a
    t = (p - a).dot(d)
    return 0 <= t <= d.dot(d)


def midpoint(a: Point2, b: Point2) -> Point2:
    return Point2((a.x + b.x) / 2, (a.y + b.y) / 2)


def lerp(a: Point2, b: Point2, t) -> Point2:
    t = as_rat(t)
    return Point2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))


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


def group_collinear_oracle(pts):
    """The records of darkness._group_collinear for integer points,
    from one dict of member sets keyed by (ux, uy, c), updated per pair."""
    lines = {}
    for i, (xi, yi) in enumerate(pts):
        for j in range(i + 1, len(pts)):
            xj, yj = pts[j]
            ux, uy = xj - xi, yj - yi
            g = gcd(abs(ux), abs(uy))
            ux //= g
            uy //= g
            if ux < 0 or (ux == 0 and uy < 0):
                ux, uy = -ux, -uy
            key = (ux, uy, ux * yi - uy * xi)
            members = lines.get(key)
            if members is None:
                lines[key] = {i, j}
            else:
                members.add(i)
                members.add(j)

    out = []
    for (ux, uy, c), members in lines.items():
        idx = sorted(members)
        axp, ayp = pts[idx[0]]
        withparam = []
        for i in idx:
            # deltas between lattice points of the line are exact integer
            # multiples of its primitive direction
            t = (pts[i][0] - axp) // ux if ux != 0 else (pts[i][1] - ayp) // uy
            withparam.append((t, i))
        withparam.sort()
        base = withparam[0][0]  # rebase so the first member sits at t = 0
        out.append((ux, uy, c, [(t - base, i) for t, i in withparam]))
    # deterministic order independent of guard numbering
    out.sort(key=lambda rec: (rec[0], rec[1], rec[2]))
    return out


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


def boundary_census_oracle(polygon: ConvexPolygon, guards) -> BoundaryCensus:
    """boundary_census over Fractions: where, strictly_between and
    on_segment per guard and edge (the library's former body)."""
    gset = GuardSet.coerce(guards)
    vs = polygon.vertices
    n = len(vs)
    reasons = []

    for g in gset.guards:
        w = polygon.where(g)
        if w == "exterior":
            raise ValueError("guard %r lies outside the polygon" % (g,))
        if w == "interior":
            reasons.append("guard %r is not on the boundary" % (g,))

    guard_at = set(gset.guards)
    vertex_guard = [v in guard_at for v in vs]
    edge_interior = []  # per edge: guards strictly inside it
    for a, b in polygon.edges():
        edge_interior.append([g for g in gset.guards if strictly_between(a, g, b)])

    weights = []
    ray_counts = []
    for i in range(n):
        w = Fraction(len(edge_interior[i]))
        at_a = vertex_guard[i]
        at_b = vertex_guard[(i + 1) % n]
        if at_a:
            w += Fraction(1, 2)
        if at_b:
            w += Fraction(1, 2)
        weights.append(w)
        m = len(edge_interior[i]) + (1 if at_a else 0) + (1 if at_b else 0)
        if m >= 2:
            ray_counts.append(2 * m - 2 - (1 if at_a else 0) - (1 if at_b else 0))
        else:
            ray_counts.append(0)
        if not edge_interior[i] and not (at_a and at_b):
            reasons.append(
                "edge %d has no interior guard and lacks guards at both endpoints" % i
            )

    darkened = []
    for i, v in enumerate(vs):
        for a, b in ((vs[i], vs[(i + 1) % n]), (vs[i - 1], vs[i])):
            others = [g for g in gset.guards if g != v and on_segment(g, a, b)]
            if len(others) >= 2:
                darkened.append(i)
                break

    dark2, _ = has_j_dark(polygon, gset, 2)
    if dark2:
        reasons.append("placement has a 2-dark point")

    return BoundaryCensus(weights, ray_counts, darkened, n, not reasons, reasons)


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


def piece_columns(pieces):
    """The _Columns of pieces given as tuples, by the library's former
    builders (_piece_boxes and _end_classes), one Python loop over the
    pieces: every float is correctly rounded from the exact tuple, each
    far end's h too, with eh its _rounding_bound (0 where there is none),
    and each box ends at the correctly rounded far end.  Anchors and open
    far ends share one numbering of their points (-1: no open far end),
    and parallel pieces one number of their primitive direction up to
    sign."""
    R = len(pieces)
    x0, y0, fdx, fdy = (_floats([p[c] for p in pieces]) for c in range(4))
    x1 = np.where(fdx == 0, x0, np.copysign(inf, fdx))
    y1 = np.where(fdy == 0, y0, np.copysign(inf, fdy))
    h = np.full(R, inf)
    unbounded = np.ones(R, dtype=bool)
    points, dirs = {}, {}
    anchor, far, direction = [], [], []
    for k, (ax, ay, dx, dy, hin, hid, strict, *_) in enumerate(pieces):
        if hin is not None:
            x1[k] = _nearest(ax * hid + dx * hin, hid)
            y1[k] = _nearest(ay * hid + dy * hin, hid)
            h[k] = _nearest(hin, hid)
            unbounded[k] = False
        g = gcd(dx, dy)
        ux, uy = dx // g, dy // g
        direction.append(dirs.setdefault((ux, uy) if ux > 0 or (ux == 0 and uy > 0)
                                         else (-ux, -uy), len(dirs)))
        anchor.append(points.setdefault((ax, ay, 1), len(points)))
        far.append(-1)
        if strict:
            X, Y = ax * hid + hin * dx, ay * hid + hin * dy
            g = gcd(X, Y, hid)
            far[-1] = points.setdefault((X // g, Y // g, hid // g), len(points))
    none = [-1] * R  # kind and end, which only the analysis's tuple builder reads
    ints = [np.array(c, dtype=np.int64) for c in (anchor, far, [p[8] for p in pieces], none,
                                                 none, [p[7] for p in pieces], direction)]
    return _Columns(*ints[:6], h, np.where(unbounded, 0.0, _rounding_bound(h)), unbounded,
                    ints[6], x0, y0, fdx, fdy, np.minimum(x0, x1), np.maximum(x0, x1),
                    np.minimum(y0, y1), np.maximum(y0, y1))


def column_faults(pieces, columns):
    """[] when the _Columns of pieces hold them, else what fails: every
    exact far parameter hin/hid lies within h +- eh (h = inf, eh = 0 where
    there is none); every exact x- and y-span lies within its box (a
    float bound holds x where it holds x's correctly rounded float, see
    _filter), up to +-inf where the piece never ends; line ids, blocked
    counts, the unbounded mask and the float anchors and directions are
    piece_columns'; and the direction and point numberings (anchors with
    open far ends) equal its up to renumbering."""
    want = piece_columns(pieces)
    faults = [name for name in ("line", "blocked", "unbounded", "x0", "y0", "dx", "dy")
              if not np.array_equal(getattr(columns, name), getattr(want, name))]
    for name, own, ref in (("direction", [columns.direction], [want.direction]),
                           ("points", [columns.anchor, columns.far], [want.anchor, want.far])):
        pairs = set(zip(np.concatenate(own).tolist(), np.concatenate(ref).tolist()))
        if not len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs}):
            faults.append(name)
    for k, (ax, ay, dx, dy, hin, hid, *_) in enumerate(pieces):
        h, eh = float(columns.h[k]), float(columns.eh[k])
        if hin is None:
            if (h, eh) != (inf, 0.0):
                faults.append(("h", k))
        elif eh < inf and abs(Fraction(hin, hid) - Fraction(h)) > Fraction(eh):
            faults.append(("h", k))
        for axis, c0, d in (("x", ax, dx), ("y", ay, dy)):
            lo, hi = (float(getattr(columns, b + axis)[k]) for b in ("lo", "hi"))
            ends = [_nearest(c0, 1)]
            if hin is not None:
                ends.append(_nearest(c0 * hid + d * hin, hid))
            elif d:
                ends.append(inf if d > 0 else -inf)
            if not lo <= min(ends) <= max(ends) <= hi:
                faults.append((axis, k))
    return faults


def clip_lines_ends(starts, dirs, halfplanes):
    """[(lo, hi)]: each line's ends as _clip gives them, (num, den, j)
    or None, from the halfplane j that _clip_lines names for each: the
    library's former per-line loop, which built every end's exact (r,
    rate) where its float pass settled the line."""
    ends = _clip_lines(starts, dirs, halfplanes)[0]
    out = []
    for (X, Y), (DX, DY), lo, hi in zip(starts, dirs, ends[0].tolist(), ends[1].tolist()):
        line = []
        for j, s in ((lo, 1), (hi, -1)):
            if j < 0:
                line.append(None)
            else:
                A, B, C = halfplanes[j]
                line.append((s * (C - A * X - B * Y), s * (A * DX + B * DY), j))
        out.append(tuple(line))
    return out


def pair_hits(pieces):
    """Every confirmed crossing (i, j, un, vn, D) of pieces from distinct
    lines, as _confirm reports it, in increasing (i, j) order: the hits
    of _pair_scan on piece_columns, each with its exact parameters (the
    library's former _pair_hits)."""
    I, J, *_ = _pair_scan(pieces, piece_columns(pieces))
    for i, j in zip(I.tolist(), J.tolist()):
        yield (i, j) + _confirm(pieces[i], pieces[j])


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


def crossing_totals(analysis):
    """{point key (xn, yn, den): darkness} over the analysis's crossing
    table, in its order: the dict the library's crossings() returned
    before it kept no point keys, with each key built by _crossing_key."""
    I, J, _, _, total, _ = analysis.crossings()
    return {_crossing_key(analysis.pieces, i, j): t
            for i, j, t in zip(I.tolist(), J.tolist(), total.tolist())}


def point_candidates(analysis):
    """(darkness, xn, yn, den) at every crossing, in crossings() order,
    then at every guard point: the library's former point_candidates()."""
    out = [(total, *key) for key, total in crossing_totals(analysis).items()]
    out += [(d, x, y, 1) for d, (x, y) in zip(analysis.guard_darkness(), analysis.frame.ints)]
    return out


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
            key = _piece_point(piece)
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


def wedge_where_oracle(W: Wedge, p: Point2) -> str:
    """'interior', 'boundary' or 'exterior' of p in the closed wedge W,
    by the Fraction cross products of p - apex with both rays: the
    library's former body of Wedge.where."""
    s1 = W.dir1.cross(p - W.apex)
    s2 = (p - W.apex).cross(W.dir2)
    if s1 < 0 or s2 < 0:
        return "exterior"
    if s1 == 0 or s2 == 0:
        return "boundary"
    return "interior"


def where_oracle(region, p: Point2) -> str:
    """Where p lies in a ConvexPolygon (convex_where_oracle) or a Wedge
    (wedge_where_oracle)."""
    if isinstance(region, ConvexPolygon):
        return convex_where_oracle(region, p)
    return wedge_where_oracle(region, p)


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


# --- triangulation, vertex cones and clearances over Fractions ---------------

def _in_closed_triangle(p: Point2, a: Point2, b: Point2, c: Point2) -> bool:
    return (
        orientation(a, b, p) >= 0
        and orientation(b, c, p) >= 0
        and orientation(c, a, p) >= 0
    )


def triangulate_oracle(P: SimplePolygon) -> List[Tuple[int, int]]:
    """simple.triangulate with Point2 orientation tests (the library's
    former body)."""
    vs = P.vertices
    active = list(range(len(vs)))
    diagonals: List[Tuple[int, int]] = []
    while len(active) > 3:
        for pos in range(len(active)):
            ia = active[pos - 1]
            ib = active[pos]
            ic = active[(pos + 1) % len(active)]
            if orientation(vs[ia], vs[ib], vs[ic]) <= 0:
                continue
            if any(
                idx not in (ia, ib, ic)
                and _in_closed_triangle(vs[idx], vs[ia], vs[ib], vs[ic])
                for idx in active
            ):
                continue
            diagonals.append((min(ia, ic), max(ia, ic)))
            active.pop(pos)
            break
        else:
            raise ValueError("ran out of ears; the polygon is not simple")
    return diagonals


def vertex_cone_oracle(P: SimplePolygon, i: int) -> Wedge:
    """simple._vertex_cone with a Point2 orientation test."""
    vs = P.vertices
    v = vs[i]
    prev = vs[i - 1]
    nxt = vs[(i + 1) % len(vs)]
    o = orientation(prev, v, nxt)
    if o > 0:
        return Wedge(v, nxt - v, prev - v)
    if o < 0:
        return Wedge(v, v - prev, v - nxt)
    along = nxt - prev
    inward = Point2(-along.y, along.x)
    return Wedge(v, (nxt - v) * 4 + inward, (prev - v) * 4 + inward)


def fisk_plan_oracle(P: SimplePolygon):
    """(diagonals, coloring, chosen class, cones) of simple.fisk_plan,
    from triangulate_oracle and vertex_cone_oracle; the coloring is the
    library's three_color, which reads indices only."""
    diagonals = triangulate_oracle(P)
    coloring = three_color(P, diagonals)
    sizes = {color: 0 for color in (1, 2, 3)}
    for color in coloring.values():
        sizes[color] += 1
    chosen_color = min(sizes, key=lambda c: (sizes[c], c))
    chosen = sorted(i for i, c in coloring.items() if c == chosen_color)
    return diagonals, coloring, chosen, {i: vertex_cone_oracle(P, i) for i in chosen}


def _dist2_point_segment(p: Point2, a: Point2, b: Point2) -> Fraction:
    ab = b - a
    denom = ab.dot(ab)
    t = (p - a).dot(ab) / denom
    if t < 0:
        t = Fraction(0)
    elif t > 1:
        t = Fraction(1)
    near = Point2(a.x + t * ab.x, a.y + t * ab.y)
    off = p - near
    return off.dot(off)


def clearance2_oracle(P: SimplePolygon, i: int) -> Fraction:
    """simple._clearance2 over Fractions (the library's former body)."""
    vs = P.vertices
    n = len(vs)
    v = vs[i]
    best: Optional[Fraction] = None
    for j in range(n):
        if j == i or (j + 1) % n == i:
            continue
        d2 = _dist2_point_segment(v, vs[j], vs[(j + 1) % n])
        if best is None or d2 < best:
            best = d2
    assert best is not None and best > 0
    return best


def place_cluster_oracle(P: SimplePolygon, cone: Wedge, clearance2: Fraction,
                         count: int, scale: Fraction, placer) -> Optional[List[Point2]]:
    """simple._place_cluster over Fractions (the library's former body):
    each candidate is a Point2, tested against the cone by
    wedge_where_oracle, against P by its where and against the
    clearance disc by a Fraction dot product, then handed to placer as
    _homogeneous integers in P's scale.  The arc's parameters come from
    the library's _pow2_under."""
    v = cone.apex
    r2 = clearance2 * scale * scale
    d1, d2 = cone.dir1, cone.dir2
    axis = d1 + d2
    t0 = _pow2_under(r2 / 4, axis.dot(axis))
    budget = 16 * count + 16
    sx = _pow2_under(r2 / 16, d1.dot(d1) * budget * budget)
    sy = _pow2_under(r2 / 16, d2.dot(d2) * budget ** 4)
    base = Point2(v.x + t0 * axis.x, v.y + t0 * axis.y)
    got: List[Point2] = []
    for m in range(1, budget + 1):
        cand = Point2(
            base.x + sx * m * d1.x + sy * m * m * d2.x,
            base.y + sx * m * d1.y + sy * m * m * d2.y,
        )
        if wedge_where_oracle(cone, cand) != "interior" or P.where(cand) != "interior":
            continue
        off = cand - v
        if off.dot(off) > r2:
            continue
        if placer.try_add(_homogeneous(cand, P.scale)):
            got.append(cand)
            if len(got) == count:
                return got
    return None


def lines_below_mouths_oracle(guards: Sequence[Point2], width: Fraction) -> bool:
    """simple._lines_below_mouths over Fractions (the library's former
    body): each pairwise guard line's height at x = 0 and x = width,
    from its slope, is below MOUTH_LEVEL."""
    for i, g in enumerate(guards):
        for h in guards[i + 1 :]:
            slope = (h.y - g.y) / (h.x - g.x)
            y_at_0 = g.y - slope * g.x
            y_at_w = g.y + slope * (width - g.x)
            if y_at_0 >= MOUTH_LEVEL or y_at_w >= MOUTH_LEVEL:
                return False
    return True


def flat_comb_guards(comb, k: int) -> GuardSet:
    """The comb's arcs without their per-spike lift, as comb_cover once
    placed them on request (staggered=False): every arc at the same
    height, so mirror-image guard pairs of different arcs line up."""
    s = comb.spike_count
    bend = Fraction(1, 64 * s)
    guards = []
    for i in range(s):
        left = Fraction(2 * i) + Fraction(5, 8)
        for m in range(k):
            u = Fraction(2 * m, k - 1) - 1
            x = left + Fraction(3, 4) * Fraction(m, k - 1)
            guards.append(Point2(x, 1 + bend * u * u))
    return GuardSet(guards)


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

def sub_piece_points(piece, cuts):
    """One scaled point (xn, yn, den) interior to each sub-piece that the
    crossing parameters cuts divide the piece into (the library's former
    _sub_piece_points).

    The cuts are (num, den) pairs with num, den > 0, in increasing order
    of num/den: equal cuts may repeat, in any representation.  A cut
    equal to the one before it is skipped by one cross-multiplication,
    and the first cut at or past a bounded piece's far end ends the walk.
    A sub-piece's point is at the midpoint t of its ends, reduced by one
    gcd; an unbounded piece ends its last sub-piece at an imagined bound
    two past the last cut, so its point is one past that cut.
    """
    ax, ay, dx, dy, hin, hid = piece[:6]
    bounds = [(0, 1)]
    for n, d in cuts:
        if hin is not None and n * hid >= hin * d:
            break
        n0, d0 = bounds[-1]
        if n * d0 != n0 * d:
            bounds.append((n, d))
    if hin is None:
        n, d = bounds[-1]
        bounds.append((n + 2 * d, d))
    else:
        bounds.append((hin, hid))
    out = []
    for (n0, d0), (n1, d1) in zip(bounds, bounds[1:]):
        num = n0 * d1 + n1 * d0
        den = 2 * d0 * d1
        g = gcd(num, den)
        num //= g
        den //= g
        out.append((ax * den + num * dx, ay * den + num * dy, den))
    return out


def candidates_oracle(frame, analysis):
    """The sampler's candidates (sampling._candidates) as its former walk
    built them: the key of every hit of pair_hits, every guard point,
    then each piece's sub_piece_points at its hits' cuts in increasing
    order, each scaled into the frame by its factor over the analysis's."""
    pieces = analysis.pieces
    keys = []
    cuts = {}
    for i, j, un, vn, D in pair_hits(pieces):
        ax, ay, dx, dy = pieces[i][:4]
        keys.append((ax * D + un * dx, ay * D + un * dy, D))
        cuts.setdefault(i, []).append((un, D))
        cuts.setdefault(j, []).append((vn, D))
    keys += [(x, y, 1) for x, y in analysis.frame.ints]
    for k, piece in enumerate(pieces):
        keys += sub_piece_points(piece, sorted(cuts.get(k, ()), key=lambda c: Fraction(*c)))
    f = frame.scale // analysis.frame.scale
    return [(X * f, Y * f, W) for X, Y, W in keys]


def sub_piece_points_oracle(piece, cuts):
    """sub_piece_points with the cuts as a sorted set of Fractions and
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
    """The distinct dark-ray crossing points and gap midpoints inside P,
    sorted by their Fraction (x, y): the analysis of the Fraction hull of
    P and the guards, with every piece subdivided by
    sub_piece_points_oracle and every candidate unscaled to a Point2."""
    gset = GuardSet(guards)
    hull = convex_hull_oracle(list(P.vertices) + list(gset.guards))
    analysis = _Analysis(ConvexPolygon(hull.corners), gset)
    points, events = crossings_oracle(analysis.pieces)
    keys = list(points) + [(x, y, 1) for x, y in analysis.frame.ints]
    for idx, piece in enumerate(analysis.pieces):
        keys += sub_piece_points_oracle(piece, events.get(idx, ()))
    cands = [analysis.frame.point(key) for key in keys]
    out = [p for p in dict.fromkeys(cands) if _inside(P, p)]
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


def distinct_oracle(samples) -> List[int]:
    """sampling._distinct without its float columns: one gcd-normalised
    key per homogeneous sample (X, Y, W), and the index of the first
    sample of each key, in index order."""
    seen = set()
    keep = []
    for k, (X, Y, W) in enumerate(samples):
        g = gcd(gcd(X, Y), W)
        key = (X // g, Y // g, W // g)
        if key not in seen:
            seen.add(key)
            keep.append(k)
    return keep


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
    for i, j, un, _, D in pair_hits(rays):
        points.setdefault(_point_key(rays[i], un, D), set()).update((rays[i][8], rays[j][8]))
    hits = [(analysis.frame.point(key), len(ids)) for key, ids in points.items()
            if len(ids) >= 3]
    if not hits:
        return None
    return min(hits, key=lambda hit: (hit[0].x, hit[0].y))


# --- the general-position stream over Fractions ------------------------------

class StreamPlacerOracle:
    """construct._StreamPlacer on Point2 candidates: each stored line
    keeps integer (A, B, C) with A x + B y = C, rebuilt from the
    Fraction denominators of its points, and a crossing along G-O is
    keyed by its reduced parameter on G + t*(O - G)."""

    def __init__(self):
        self.guards: List[Point2] = []
        self.lines: List[Tuple[int, int]] = []
        self._coeffs: List[Tuple[int, int, int]] = []

    @staticmethod
    def _line_coeffs(p: Point2, q: Point2) -> Tuple[int, int, int]:
        den = p.x.denominator * p.y.denominator * q.x.denominator * q.y.denominator
        px, py = int(p.x * den), int(p.y * den)
        qx, qy = int(q.x * den), int(q.y * den)
        a = (qy - py) * den
        b = (px - qx) * den
        c = (qy - py) * px + (px - qx) * py
        shrink = gcd(gcd(a, b), c)
        return a // shrink, b // shrink, c // shrink

    def try_add(self, g: Point2) -> bool:
        gs = self.guards
        dg = g.x.denominator * g.y.denominator
        gx, gy = int(g.x * dg), int(g.y * dg)
        nums = [c * dg - a * gx - b * gy for (a, b, c) in self._coeffs]
        for o_idx, o in enumerate(gs):
            d = o - g
            u = d.x.numerator * d.y.denominator
            v = d.y.numerator * d.x.denominator
            dd = dg * d.x.denominator * d.y.denominator
            seen = {}
            for idx, (i, j) in enumerate(self.lines):
                if i == o_idx or j == o_idx:
                    continue
                a, b, _c = self._coeffs[idx]
                den = (a * u + b * v) * dd
                if den == 0:
                    continue
                num = nums[idx]
                shrink = gcd(num, den)
                key = (num // shrink, den // shrink) if den > 0 else (
                    -num // shrink, -den // shrink)
                if key in seen:
                    return False
                seen[key] = (i, j)
        base = len(gs)
        self.guards.append(g)
        for i in range(base):
            self.lines.append((i, base))
            self._coeffs.append(self._line_coeffs(gs[i], g))
        return True


def interior_anchor_and_margin_oracle(region):
    """construct._interior_anchor_and_margin on the region's Fraction
    halfplanes: the room of each is Line.eval at the anchor over
    |a| + |b|."""
    if isinstance(region, ConvexPolygon):
        anchor = centroid(region.vertices)
    elif isinstance(region, Wedge):
        step = _forward_step(region.dir1) + _forward_step(region.dir2)
        shift = 1 << max(abs(step.x.numerator), abs(step.y.numerator)).bit_length()
        anchor = region.apex + step * Fraction(1, shift)
    else:
        raise TypeError("region must be ConvexPolygon or Wedge, got %r" % (region,))
    margin = None
    for h in region.halfplanes():
        ln = h.line
        room = ln.eval(anchor) / (abs(ln.a) + abs(ln.b))
        if room <= 0:
            raise ValueError("region anchor is not strictly interior")
        if margin is None or room < margin:
            margin = room
    return anchor, margin


def place_general_position_oracle(region, g: int) -> GuardSet:
    """place_general_position by restarts: the stream runs on the mapped
    candidates anchor + (sx*t, sy*t^2), and when t passes the span it
    starts again from t = 1 with the span doubled."""
    anchor, margin = interior_anchor_and_margin_oracle(region)
    budget = g + 64
    while True:
        span = budget
        sx = _floor_pow2(margin / (2 * span))
        sy = _floor_pow2(margin / (2 * span * span))
        placer = StreamPlacerOracle()
        for t in range(1, span + 1):
            cand = anchor + Point2(sx * t, sy * t * t)
            if placer.try_add(cand) and len(placer.guards) == g:
                return GuardSet(placer.guards)
        budget *= 2


# --- the 4n-2 scaffold over Fractions ------------------------------------------

def _dyadic(q: Fraction, bits: int) -> Fraction:
    """Nearest multiple of 2**-bits (ties toward +infinity); exact."""
    scaled = q * (1 << bits)
    rounded = (scaled.numerator * 2 + scaled.denominator) // (scaled.denominator * 2)
    return Fraction(rounded, 1 << bits)


def _snap_param(t: Fraction, accept, bits: int) -> Optional[Fraction]:
    """Dyadic value near t passing accept(); falls back to t itself."""
    for step in range(_SNAP_STEPS):
        cand = _dyadic(t, bits + 4 * step)
        if accept(cand):
            return cand
    return t if accept(t) else None


def _snap_in_frame(target: Point2, origin: Point2, ax1: Point2, ax2: Point2, accept,
                   bits: int):
    """Snap target to dyadic coordinates in the frame origin + a*ax1 + b*ax2."""
    det = ax1.cross(ax2)
    if det == 0:
        return None
    rel = target - origin
    a = rel.cross(ax2) / det
    b = ax1.cross(rel) / det
    for step in range(_SNAP_STEPS):
        grid = bits + 4 * step
        cand = origin + ax1 * _dyadic(a, grid) + ax2 * _dyadic(b, grid)
        if accept(cand):
            return cand
    return target if accept(target) else None


def _edge_param(v: Point2, w: Point2, p: Point2) -> Fraction:
    """Parameter t with p = v + t*(w - v), for p on line vw."""
    d = w - v
    return (p - v).dot(d) / d.dot(d)


def _strict_inside(poly: ConvexPolygon, p: Point2) -> bool:
    return poly.where(p) == "interior"


class ScaffoldRecord:
    """The fields of a ConstructionScaffold, under the same names, each
    list filled in place as build_scaffold_oracle goes; guards() is the
    library's canonical order."""

    def __init__(self, P: ConvexPolygon, eps: Fraction, zz):
        n = len(P.vertices)
        self.polygon, self.eps, self.zz = P, eps, zz
        self.elbow: Dict[int, Point2] = {}
        for name in ("before", "after", "exit_before", "exit_after", "safe_region",
                     "x", "y", "z", "fence"):
            setattr(self, name, [None] * n)

    guards = ConstructionScaffold.guards


def build_scaffold_oracle(P: ConvexPolygon, eps: Fraction,
                          bits: int = _SNAP_BITS) -> ScaffoldRecord:
    """construct._build_scaffold on Point2 and Fraction Line arithmetic:
    points from line intersections, accept tests by Line.side and
    polygon membership, and the snaps on Fraction parameters.  Returns
    the filled ScaffoldRecord or raises _Infeasible."""
    vs = P.vertices
    n = len(vs)
    zz = zigzag(P)
    sc = ScaffoldRecord(P, eps, zz)

    for i in range(n):
        sc.before[i] = lerp(vs[i], vs[i - 1], eps)
        sc.after[i] = lerp(vs[i], vs[(i + 1) % n], eps)

    for apex, j in zz.triangles():
        m_i, p_i = sc.before[apex], sc.after[apex]
        base_mid = midpoint(sc.after[j], sc.before[(j + 1) % n])
        hit = line_intersection(Line.through(m_i, p_i), Line.through(vs[apex], base_mid))
        if not isinstance(hit, Point2):
            raise _Infeasible("elbow lines for vertex %d are degenerate" % apex)
        corner = ConvexPolygon([m_i, vs[apex], p_i])
        target = hit + (vs[apex] - hit) * Fraction(1, 256)
        elbow = _snap_in_frame(
            target, m_i, vs[apex] - m_i, p_i - m_i,
            lambda q: _strict_inside(corner, q), bits,
        )
        if elbow is None:
            raise _Infeasible("no room for the elbow guard at vertex %d" % apex)
        sc.elbow[apex] = elbow

    for i in range(n):
        if i in sc.elbow:
            j = zz.apex_base[i]
            ell = sc.elbow[i]
            edge_cw = Line.through(vs[i - 1], vs[i])
            edge_ccw = Line.through(vs[i], vs[(i + 1) % n])
            b = line_intersection(Line.through(sc.after[j], ell), edge_cw)
            a = line_intersection(Line.through(sc.before[(j + 1) % n], ell), edge_ccw)
            if not isinstance(b, Point2) or not isinstance(a, Point2):
                raise _Infeasible("exit lines at vertex %d are parallel to the edges" % i)
            if not strictly_between(vs[i], b, sc.before[i]):
                raise _Infeasible("exit point before vertex %d misses its segment" % i)
            if not strictly_between(vs[i], a, sc.after[i]):
                raise _Infeasible("exit point after vertex %d misses its segment" % i)
            sc.exit_before[i], sc.exit_after[i] = b, a
            try:
                sc.safe_region[i] = ConvexPolygon([b, vs[i], a, ell])
            except ValueError:
                raise _Infeasible("safe region at vertex %d is degenerate" % i)
        else:
            sc.exit_before[i], sc.exit_after[i] = sc.before[i], sc.after[i]
            sc.safe_region[i] = ConvexPolygon([sc.before[i], vs[i], sc.after[i]])

    base_end = [None] * n
    for i in range(n):
        reach_b = _edge_param(vs[i], vs[i - 1], sc.exit_before[i])
        t = _snap_param(reach_b / 4, lambda u: 0 < u < reach_b, bits)
        if t is None:
            raise _Infeasible("cannot place the edge guard at vertex %d" % i)
        sc.x[i] = lerp(vs[i], vs[i - 1], t)

        reach_a = _edge_param(vs[i], vs[(i + 1) % n], sc.exit_after[i])
        base_end[i] = lerp(vs[i], vs[(i + 1) % n], _dyadic(reach_a / 4, bits + 8))

    for i in range(n):
        region = sc.safe_region[i]
        lo, hi = Fraction(0), Fraction(1)
        side_wanted = 0
        split = None
        if i in sc.elbow:
            split = Line.through(vs[i], sc.elbow[i])
            side_wanted = split.side(sc.after[i])
            if side_wanted == 0:
                raise _Infeasible("elbow line at vertex %d runs along the edge" % i)
            ex, eq = split.eval(sc.x[i]), split.eval(base_end[i])
            sx = (ex > 0) - (ex < 0)
            sq = (eq > 0) - (eq < 0)
            if sq != side_wanted:
                raise _Infeasible("base chord at vertex %d is on the wrong side" % i)
            if sx == side_wanted:
                lo = Fraction(0)
            else:
                lo = ex / (ex - eq)

        target = lerp(sc.x[i], base_end[i], (lo + hi) / 2)

        def y_ok(q, region=region, split=split, side_wanted=side_wanted):
            if not _strict_inside(region, q):
                return False
            if split is not None and split.side(q) != side_wanted:
                return False
            return True

        y = _snap_in_frame(target, sc.before[i], vs[i] - sc.before[i],
                           sc.after[i] - sc.before[i], y_ok, bits)
        if y is None:
            raise _Infeasible("cannot place the hull guard at vertex %d" % i)
        sc.y[i] = y

    ring = [g for pair in zip(sc.x, sc.y) for g in pair]
    hull = convex_hull(ring)
    if hull.degenerate or any(label != "corner" for label in hull.labels):
        raise _Infeasible("an edge or hull guard fell inside the guard hull")
    hull_planes = [Halfplane.left_of(a, b)
                   for a, b in ConvexPolygon(hull.corners).edges()]

    for i in range(n):
        edge_cw = Line.through(vs[i - 1], vs[i])
        hit = line_intersection(Line.through(sc.x[(i + 1) % n], sc.y[i]), edge_cw)
        if not isinstance(hit, Point2) or not strictly_between(vs[i - 1], hit, vs[i]):
            raise _Infeasible("fence line at vertex %d misses the clockwise edge" % i)
        sc.fence[i] = hit

    for i in range(n):
        constraints = list(hull_planes)

        def oriented(line, wanted):
            if wanted < 0:
                line = Line(-line.a, -line.b, -line.c)
            constraints.append(Halfplane(line))

        l1 = Line.through(sc.y[i], sc.exit_before[i])
        s1 = l1.side(sc.x[i])
        l2 = Line.through(sc.y[i - 1], sc.fence[i])
        s2 = l2.side(sc.x[i])
        l3 = Line.through(sc.x[i], sc.exit_after[i])
        s3 = l3.side(sc.y[i])
        if 0 in (s1, s2, s3):
            raise _Infeasible("fence lines at vertex %d pass through their guards" % i)
        oriented(l1, s1)
        oriented(l2, s2)
        oriented(l3, s3)

        feasible = halfplane_intersection(constraints)
        if feasible.status != "bounded" or len(feasible.vertices) < 3:
            raise _Infeasible("no room for the interior guard at vertex %d" % i)

        taken = set(sc.elbow.values())
        taken.update(ring)
        taken.update(g for g in sc.z if g is not None)

        def z_ok(q):
            if q in taken:
                return False
            return all(h.line.side(q) > 0 for h in constraints)

        z = _snap_in_frame(centroid(feasible.vertices), sc.before[i],
                           vs[i] - sc.before[i], sc.after[i] - sc.before[i], z_ok, bits)
        if z is None:
            raise _Infeasible("cannot place the interior guard at vertex %d" % i)
        sc.z[i] = z

    return sc


def place_4n_minus_2_attempts_oracle(P: ConvexPolygon):
    """The former place_4n_minus_2 schedule on build_scaffold_oracle:
    (attempts, accepted), where attempts lists (eps, bits, outcome) per
    attempt, outcome the _Infeasible message, "2-dark" or "accepted",
    and accepted is the scaffold taken, or None when all attempts fail.
    The 2-dark test is the library's max_darkness, which the darkness
    oracles check on their own."""
    attempts = []
    for attempt in range(_MAX_EPS_RETRIES):
        eps = Fraction(1, 4) / (1 << (attempt // 4))
        bits = _SNAP_BITS + 4 * (attempt % 4)
        try:
            sc = build_scaffold_oracle(P, eps, bits)
        except _Infeasible as exc:
            attempts.append((eps, bits, str(exc)))
            continue
        if max_darkness(P, sc.guards()).darkness <= 1:
            attempts.append((eps, bits, "accepted"))
            return attempts, sc
        attempts.append((eps, bits, "2-dark"))
    return attempts, None


# --- misc ----------------------------------------------------------------------

def all_points_distinct(points: Sequence[Point2]) -> bool:
    return len(set(points)) == len(points)


def find_collinear_triple(guards):
    """Indices of three collinear guards, or None."""
    gset = GuardSet.coerce(guards)
    for _, _, _, members in _group_collinear(_integers(gset.guards)[1]):
        if len(members) >= 3:
            return tuple(i for _, i in members[:3])
    return None


def has_collinear_triple(points: Sequence[Point2]) -> bool:
    pts = list(points)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            for k in range(j + 1, len(pts)):
                if collinear(pts[i], pts[j], pts[k]):
                    return True
    return False
