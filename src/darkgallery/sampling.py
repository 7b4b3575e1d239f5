"""Sampled depth checks where exact certification is out of reach.

Inside a simple polygon the walls block sight as well as the guards, and
there is no arrangement shortcut like the convex case's dark-portion
bookkeeping.  What we can still do exactly is decide visibility between
two given points: clip the open segment against every boundary edge,
then test the midpoint of each sub-interval against the closed polygon.
``sample_depth`` runs that predicate over a deterministic sample set and
reports the worst depth it saw.

The default samples are not a blind grid.  Every report includes the
polygon vertices, the guard positions, and the crossing points and
crossing-free gap midpoints of the dark rays, filtered to the polygon:
those are the points where coverage is most likely to dip.  This module
chooses them itself (``_suspicious_points``): it takes the dark-ray
pieces of the exact analysis of the convex hull and makes one walk of
the pair scan over them, summing no darkness and keying no crossing;
one sort orders the cuts of every piece.  Grid or seeded-random samples
are layered on top via the sampler spec.

Every sample is homogeneous integers (X, Y, W), W > 0, in one frame
from the moment it is generated until the report is built:
``geometry._Frame``, the same frame the exact engine scales its scene
with, scales the polygon and the guards to integers once per call, the
crossing points and gap midpoints come from the exact analysis (in its
own frame, which one integer factor maps into this one) as integers, and
grid and seeded-random points are built in the frame's integers.  This
module reads no denominator itself.  Each sample is converted to float
columns (``_columns``) once, where it is made, and its columns travel
with it through the deduplication and the sort to the float pass.  The
columns are correctly rounded, so they order and deduplicate the
samples: ``_distinct`` builds a gcd-normalised key only for samples
that share both floats, and ``_filter._sorted_exact`` sorts on the x
column, with the exact cross-multiplication order ``_filter._XY`` only
within runs of equal floats.  ``_scan`` returns the samples with their
depths and builds no point: ``sample_depth`` builds one ``Point2`` per
sample of its ``SampleReport``, and the CLI certificate one per witness
it reports.

Every verdict is exact.  Depths and polygon membership take one path on
every polygon, convex or not, at every batch size and coordinate scale,
reading one float orientation matrix of points against walls
(``_wall_sides``): a float pass whose only verdicts are strict
comparisons against one certified margin per batch (``_filter._margin``,
where every float bound of the package is derived), then one integer
kernel for whatever it leaves open.  The float pass is laid out
edge-major, [edge][sample] and [guard][sample], so each row is a
contiguous run of samples and every reduction over edges or guards runs
down the columns; per guard, one matrix product (``_segment_sides``)
orients every wall end and every guard against the segments from that
guard to the samples.  A NaN, an inf, or any value once a product could
overflow decides nothing.  The float pass also settles samples on the
boundary: whether a sample or a guard lies exactly on an edge's line is
decided in integers where the float sign is uncertain, and a segment
that certainly meets no edge and certainly enters the polygon at the
guard stays inside.  ``_wall_free`` decides whether a segment stays
inside, ``_between`` whether a guard blocks it, and ``geometry._locate``
(which ``SimplePolygon.where`` reads too) decides membership.  Guard
blocking is decided per guard, over the (sample, other guard) pairs the
float pass leaves open for it: near-collinear pairs whose order along
the segment does not rule the guard out (``_off_segment``).  ``visible``
and ``depth_at_sample`` are that kernel on one pair and one sample.

A sampled report can prove a placement bad (a witness below target) but
never certifies it good -- that asymmetry is inherent, and callers
should treat ``min_sampled_depth`` as an upper bound on the true
minimum depth.
"""

from __future__ import annotations

import random
from math import gcd
from typing import List, Optional, Union

import numpy as np

from ._filter import _RATIO, _XY, _margin, _nearest, _quotients, _signs, _sorted_exact
from .darkness import GuardSet, _Analysis, _pair_hits, _sub_piece_points
from .geometry import (
    ConvexPolygon,
    Point2,
    SimplePolygon,
    _Frame,
    _Frozen,
    _hull_corners,
    _locate,
    as_int,
)

AnyPolygon = Union[ConvexPolygon, SimplePolygon]

# resolution of the rational coordinates drawn by the seeded sampler
_RANDOM_GRID = 1 << 20


def _columns(frame: _Frame, pts):
    """Float columns (x, y) of the frame's integer pairs or homogeneous
    samples (X, Y, W): each value is X / (W * unit) correctly rounded,
    the float of the coordinate it stands for in the polygon's own units,
    divided by unit / scale (a power of two, 1 below 2^_filter._FLOAT_BITS)."""
    s = frame.unit
    dens = [s * p[2] if len(p) == 3 else s for p in pts]
    return _quotients([p[0] for p in pts], dens), _quotients([p[1] for p in pts], dens)


def _wall_sides(frame: _Frame, *points):
    """(ax, ay, sides): the float columns of the frame's walls (ccw),
    closed by the first wall again at row E, so that edge e runs from
    row e to row e + 1; and for each (px, py) pair of point columns the
    [edge][point] orientation of the points against edge e: positive
    strictly left of its line (the inside of the edge), negative
    strictly right.  Each row is a contiguous run of points."""
    ax, ay = _columns(frame, frame.walls + frame.walls[:1])
    ex = (ax[1:] - ax[:-1])[:, None]
    ey = (ay[1:] - ay[:-1])[:, None]
    x0 = ax[:-1, None]
    y0 = ay[:-1, None]
    sides = [ex * (py[None, :] - y0) - ey * (px[None, :] - x0) for px, py in points]
    return ax, ay, sides


@np.errstate(over="ignore", invalid="ignore")  # inf and NaN only ever defer
def _contains_mask(frame: _Frame, samples, cols):
    """Bool mask: whether each homogeneous sample of the frame lies in
    the closed polygon, float-prefiltered, given the samples' float
    columns cols (_columns).

    The float pass settles samples whose membership is certain: heights
    compare on the correctly rounded columns, sides under the batch
    margin (_margin).  Only the rest, such as boundary-grazing samples,
    are re-decided exactly by ``_locate``, so the result matches the
    plain loop bit for bit.
    """
    px, py = cols
    ax, ay, (o,) = _wall_sides(frame, (px, py))
    left, right = _signs(o, _margin(px, py, ax, ay))
    pyr = py[None, :]
    lo = np.minimum(ay[:-1], ay[1:])[:, None]
    hi = np.maximum(ay[:-1], ay[1:])[:, None]
    level = (pyr > lo) & (pyr < hi)
    upward = (ay[1:] > ay[:-1])[:, None]
    mask = ((level & np.where(upward, left, right)).sum(axis=0) % 2).astype(bool)
    # parity is certain only when every edge is apart from the ray's
    # height, or level with it and certainly off to one side of the point
    apart = (pyr < lo) | (pyr > hi)
    for i in np.nonzero(~(apart | (level & (left | right))).all(axis=0))[0].tolist():
        mask[i] = _locate(frame.walls, *samples[i]) != "exterior"
    return mask


def _on_lines(walls, pts, unsure):
    """[edge][point] -> the homogeneous point lies exactly on the line of
    the edge from walls[e] to walls[e + 1]; decided in integers only where
    unsure, False elsewhere."""
    on = np.zeros(unsure.shape, dtype=bool)
    n = len(walls)
    for e, r in zip(*np.nonzero(unsure)):
        X, Y, W = pts[r]
        (ax, ay), (bx, by) = walls[e], walls[(e + 1) % n]
        on[e, r] = (bx - ax) * (Y - ay * W) == (by - ay) * (X - ax * W)
    return on


def _segment_sides(xs, ys, qx, qy, px, py):
    """[point][sample] orientation of each point (xs, ys) against the
    segment from (qx, qy) to each sample (px, py): positive strictly left
    of the segment's line, negative strictly right.

    One matrix product: the left factor [a b] holds each point's y offset
    from q and its negated x offset, a = ys - qy and b = qx - xs, the
    right factor the samples' offsets dx = px - qx and dy = py - qy, so
    that the batch margin (_margin) covers each entry, as it does an
    elementwise orientation.
    """
    return np.column_stack((ys - qy, qx - xs)) @ np.stack((px - qx, py - qy))


@np.errstate(over="ignore", invalid="ignore")
def _depths(frame: _Frame, samples, cols) -> List[int]:
    """[depth at each homogeneous sample of the frame], float-prefiltered,
    given the samples' float columns cols (_columns).

    Precondition: the frame's points are the guards, in the closed
    polygon, validated by the caller.  The polygon may be any simple
    polygon, a ConvexPolygon included: one path serves both.  The float
    pass certifies the clear wall crossings, clear misses, and clear
    non-collinearities; every pair it cannot certify is re-decided by the
    integer kernel.

    The float pass is laid out [edge][sample] and [guard][sample], so
    each row is a contiguous run of samples.  For each guard q, one
    matrix product (``_segment_sides``) orients every wall end (rows
    0..E, the first wall again as row E) and every guard (rows E+1..)
    against the segment from q to each sample.  Edge e runs from row e
    to row e + 1, so both of its ends are slices.

    Samples on the boundary are settled too.  Whether a sample, or a
    guard, lies exactly on an edge's line is decided in integers, only
    where the float sign is uncertain.  An edge whose line holds one end
    of the segment is missed when the other end is certainly off the
    line.  For an edge through the guard q, the sample must also be
    strictly left of it (inside: the walls are ccw), so that the segment
    enters the polygon at q.  No other rule certifies an edge through an
    end of the segment.  So when every edge is missed, the open segment
    meets no wall and starts inside at q, where q is interior or enters
    across each wall through it: it stays inside, whatever it does at
    the sample, which needs no side test (a sample at a reflex vertex,
    or on an edge's line past the edge, is settled from either side).  A
    sample outside the polygon is never settled that way: the segment
    would have to meet a wall on its way out.

    Guard blocking is decided per guard q: one batch gives every
    (sample, other guard) pair the float pass leaves open, and
    ``_between`` decides them in sample order, skipping the samples q
    already cannot see.  A guard h that is not certainly off the
    segment's line is ruled out by order along the segment when it is
    certainly behind q or past the sample (``_off_segment``), in the
    same float columns and under the same margin.
    """
    guards = frame.ints
    walls = frame.walls
    E = len(walls)
    px, py = cols
    gx, gy = _columns(frame, guards)
    # side of each edge's line each sample (c4) and each guard (c3) falls on
    ax, ay, (c4, c3) = _wall_sides(frame, (px, py), (gx, gy))
    cert = _margin(px, py, gx, gy, ax, ay)
    p4, n4 = _signs(c4, cert)
    on4 = _on_lines(walls, samples, ~(p4 | n4))
    p3s, n3s = _signs(c3, cert)
    on3s = _on_lines(walls, [(x, y, 1) for x, y in guards], ~(p3s | n3s))
    # rows 0..E of each guard's product: the closed walls; rows E+1..: the guards
    xs = np.concatenate((ax, gx))
    ys = np.concatenate((ay, gy))

    depths = np.zeros(len(samples), dtype=np.int64)
    for gi, q in enumerate(guards):
        pos, neg = _signs(_segment_sides(xs, ys, gx[gi], gy[gi], px, py), cert)
        # edge e runs from row e to row e + 1
        p1 = pos[:E]
        n1 = neg[:E]
        p2 = pos[1:E + 1]
        n2 = neg[1:E + 1]
        p3 = p3s[:, gi, None]
        n3 = n3s[:, gi, None]
        # certain transversal crossing of an open edge: invisible
        crossing = ((p1 & n2) | (n1 & p2)) & ((p3 & n4) | (n3 & p4))
        # certain miss: edge strictly one side of the segment's line,
        # both ends strictly one side of the edge's line, the sample on
        # the edge's line and q off it, or q on the edge's line and the
        # sample strictly inside it
        miss = (p1 & p2) | (n1 & n2) | (p3 & p4) | (n3 & n4)
        miss |= (on4 & (p3 | n3)) | (on3s[:, gi, None] & p4)
        vis = ~crossing.any(axis=0)
        wall_unsure = vis & ~miss.all(axis=0)
        # guard-blocking: only a guard exactly on the segment's line can
        # block, so certain non-collinearity rules a blocker out
        maybe = ~(pos[E + 1:] | neg[E + 1:])
        maybe[gi] = False
        for s in np.nonzero(wall_unsure)[0]:
            vis[s] = _wall_free(walls, q, samples[s])
        # every (sample, guard) pair left open, in sample order, that the
        # order along the segment cannot rule out: the first guard
        # between q and a sample blocks it, and settles the sample
        rows, cols = np.nonzero((maybe & vis).T)
        left = ~_off_segment(gx[cols], gy[cols], gx[gi], gy[gi], px[rows], py[rows], cert)
        rows, cols = rows[left], cols[left]
        for s, h in zip(rows.tolist(), cols.tolist()):
            if vis[s] and _between(guards[h], q, samples[s]):
                vis[s] = False
        depths += vis
    return [int(v) for v in depths]


def _off_segment(hx, hy, qx, qy, sx, sy, cert):
    """Float columns of points h, ends q and samples s -> h is certainly
    not strictly between q and s: h lies behind q, (h - q).(s - q) <
    -cert, or past s, (h - s).(s - q) > cert.

    A point strictly between has (h - q).(s - q) = t*|s - q|^2 > 0 and
    (h - s).(s - q) = (t - 1)*|s - q|^2 < 0 for some 0 < t < 1, and the
    batch margin cert covers both values, so neither verdict holds for it.
    """
    dx = sx - qx
    dy = sy - qy
    return (_signs((hx - qx) * dx + (hy - qy) * dy, cert)[1]
            | _signs((hx - sx) * dx + (hy - sy) * dy, cert)[0])


def _between(h, q, s) -> bool:
    """The integer point h lies on the open segment from the integer
    point q to the homogeneous point s = (X, Y, W).

    With the integer vector D = W*(s - q) and H = h - q, that is
    H x D == 0 and 0 < W*(H.D) < D.D, which also rules out h == q,
    h == s and s == q.
    """
    X, Y, W = s
    dx = X - q[0] * W
    dy = Y - q[1] * W
    hx = h[0] - q[0]
    hy = h[1] - q[1]
    return hx * dy == hy * dx and 0 < (hx * dx + hy * dy) * W < dx * dx + dy * dy


def _wall_free(walls, q, s) -> bool:
    """Does the open segment from the integer point q to the homogeneous
    point s stay inside the closed polygon with integer vertices walls?

    Touching the boundary is allowed; leaving it is not.  The segment
    changes sides only where it meets a boundary edge, so it suffices to
    collect every parameter t in (0, 1) where it meets a closed edge
    transversally, as an integer ratio along D = W*(s - q), and probe
    one interior point of each gap.  Edges parallel to the segment add
    no cut: a run of edges along it ends at vertices where a transversal
    edge cuts (or beyond the segment), and a gap along such a run is
    boundary throughout.  Equal cuts are skipped: their probe would be
    a boundary point.
    """
    qx, qy = q
    X, Y, W = s
    dx = X - qx * W
    dy = Y - qy * W
    if not dx and not dy:
        return _locate(walls, X, Y, W) != "exterior"
    cuts = [(0, 1), (1, 1)]
    ax, ay = walls[-1]
    for bx, by in walls:
        ex = bx - ax
        ey = by - ay
        den = dx * ey - dy * ex
        if den:
            wx = ax - qx
            wy = ay - qy
            t = (wx * ey - wy * ex) * W
            u = wx * dy - wy * dx
            if den < 0:
                den, t, u = -den, -t, -u
            if 0 < t < den and 0 <= u <= den:
                cuts.append((t, den))
        ax, ay = bx, by
    cuts = [cuts[k] for k in _sorted_exact(cuts, _RATIO)]
    for (t0, d0), (t1, d1) in zip(cuts, cuts[1:]):
        if t0 * d1 == t1 * d0:
            continue
        mid = t0 * d1 + t1 * d0
        w = 2 * d0 * d1 * W
        if _locate(walls, qx * w + mid * dx, qy * w + mid * dy, w) == "exterior":
            return False
    return True


def _sees(walls, guards, q, s) -> bool:
    """The kernel's visibility: the segment from q to s stays inside and
    no point of guards stands strictly between."""
    return _wall_free(walls, q, s) and not any(_between(h, q, s) for h in guards)


def visible(P: AnyPolygon, guards, q: Point2, p: Point2) -> bool:
    """Can a guard at q see the point p inside P?

    True when the open segment stays in the closed polygon (grazing a
    reflex vertex or running along an edge still counts) and no other
    guard stands strictly between the two.  Symmetric in p and q.
    """
    gset = GuardSet.coerce(guards)
    frame = _Frame(P, gset.guards + (q,))
    return _sees(frame.walls, frame.ints[:-1], frame.ints[-1], frame.sample(p))


def depth_at_sample(P: AnyPolygon, guards, p: Point2) -> int:
    """Number of guards that see p (exact, wall- and guard-blocking)."""
    gset = GuardSet.coerce(guards)
    frame = _Frame(P, gset.guards)
    s = frame.sample(p)
    return sum(1 for q in frame.ints if _sees(frame.walls, frame.ints, q, s))


class SampleReport(_Frozen):
    """Outcome of a sampled depth scan.

    samples: list of (point, depth) in scan order, duplicates removed;
    min_sampled_depth: the smallest depth seen;
    failing_samples: the points below the requested target (empty when
    no target was given).
    """

    __slots__ = ("samples", "min_sampled_depth", "failing_samples")

    def __init__(self, samples, target=None):
        samples = list(samples)
        if not samples:
            raise ValueError("a sample report needs at least one sample")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(
            self, "min_sampled_depth", min(depth for _, depth in samples)
        )
        failing = []
        if target is not None:
            failing = [p for p, depth in samples if depth < target]
        object.__setattr__(self, "failing_samples", failing)

    def __repr__(self):
        return "SampleReport(%d samples, min depth %d)" % (
            len(self.samples),
            self.min_sampled_depth,
        )


def _suspicious_points(frame: _Frame, P: AnyPolygon, gset: GuardSet):
    """(samples, columns): the distinct dark-ray crossing points, guard
    points and sub-piece points that land inside P, as homogeneous
    samples of the frame in (x, y) order, and their float columns
    (_columns), converted once for the deduplication and the membership
    test and carried through the sort.

    The rays are the pieces of the exact analysis of the convex hull of P
    and the guards (walls ignored), because a depth dip in the polygon
    can only happen at guard blockings, and those live on the hull's
    dark-ray arrangement.  One walk of ``_pair_hits`` gives each hit's
    crossing point (ax*D + un*dx, ay*D + un*dy, D) on piece i, with no
    key, and two cuts, un/D on piece i and vn/D on piece j.  One sort on
    (piece, correctly rounded cut) orders every piece's cuts, comparing
    them exactly only within runs of equal floats; each piece then gives
    one point inside each of the sub-pieces its cuts divide it into.  No
    darkness is summed.  Concurrent rays give a point once per pair of
    its pieces, so the candidates are deduplicated (``_distinct``) on
    their columns, which leave a gcd key only to points that share both
    floats; the first of each point is kept.  The inside points are
    sorted on their x column, correctly rounded and so monotone in x,
    with ``_XY`` only within runs of equal floats.  The hull corners are
    vertices or guards, so the analysis's scale divides the frame's, and
    one integer factor maps each point (xn, yn, den) into the frame; it
    is 1 unless a vertex off the hull has a denominator of its own.
    """
    pts = list(P.vertices) + list(gset.guards)
    region = ConvexPolygon([pts[i] for i in _hull_corners(frame.walls + frame.ints)])
    analysis = _Analysis(region, gset)
    pieces = analysis.pieces
    keys = []
    cuts = []
    floats = []
    counts = [0] * len(pieces)
    for i, j, un, vn, D in _pair_hits(pieces):
        ax, ay, dx, dy = pieces[i][:4]
        keys.append((ax * D + un * dx, ay * D + un * dy, D))
        cuts += ((un, D), (vn, D))
        floats += ((i, _nearest(un, D)), (j, _nearest(vn, D)))
        counts[i] += 1
        counts[j] += 1
    keys += [(x, y, 1) for x, y in analysis.frame.ints]
    # the sorted cuts run piece by piece, each piece's as many as it has
    ordered = [cuts[k] for k in _sorted_exact(cuts, _RATIO, floats)]
    start = 0
    for piece, count in zip(pieces, counts):
        keys += _sub_piece_points(piece, ordered[start:start + count])
        start += count
    f = frame.scale // analysis.frame.scale
    cands = keys if f == 1 else [(xn * f, yn * f, den) for xn, yn, den in keys]
    px, py = _columns(frame, cands)
    keep = _distinct(cands, px, py)
    inside, (px, py) = _inside(frame, [cands[k] for k in keep], (px[keep], py[keep]))
    order = _sorted_exact(inside, _XY, px.tolist())
    return [inside[k] for k in order], (px[order], py[order])


def _box(frame: _Frame):
    """(minX, minY, maxX, maxY): the polygon's bounding box in the frame."""
    xs = [x for x, _ in frame.walls]
    ys = [y for _, y in frame.walls]
    return min(xs), min(ys), max(xs), max(ys)


def _grid_points(frame: _Frame, resolution: int):
    if resolution < 1:
        raise ValueError("grid resolution must be at least 1")
    n = resolution
    minx, miny, maxx, maxy = _box(frame)
    cands = [
        (minx * n + (maxx - minx) * i, miny * n + (maxy - miny) * j, n)
        for i in range(n + 1)
        for j in range(n + 1)
    ]
    return _inside(frame, cands, _columns(frame, cands))


def _inside(frame: _Frame, samples, cols):
    """(samples, columns) of the samples in the closed polygon, in their
    order, given their float columns."""
    keep = np.nonzero(_contains_mask(frame, samples, cols))[0]
    return [samples[k] for k in keep.tolist()], (cols[0][keep], cols[1][keep])


def _random_points(frame: _Frame, seed: int, count: int):
    if count < 0:
        raise ValueError("sample count cannot be negative")
    minx, miny, maxx, maxy = _box(frame)
    n = _RANDOM_GRID
    rng = random.Random(seed)
    out = []
    budget = 64 * count + 64  # thin polygons reject a lot; stay finite
    while len(out) < count and budget > 0:
        budget -= 1
        s = (minx * n + (maxx - minx) * rng.randrange(n + 1),
             miny * n + (maxy - miny) * rng.randrange(n + 1), n)
        if _locate(frame.walls, *s) != "exterior":
            out.append(s)
    return out


def _sampler_points(frame: _Frame, sampler):
    """(samples, columns): the sampler's homogeneous samples in the
    polygon and their float columns (_columns)."""
    if sampler is None:
        return [], _columns(frame, [])
    kind = sampler[0] if isinstance(sampler, (list, tuple)) and sampler else None
    if kind == "grid" and len(sampler) == 2:
        return _grid_points(frame, as_int(sampler[1], "grid resolution"))
    if kind == "random" and len(sampler) == 3:
        _, seed, count = sampler
        out = _random_points(frame, as_int(seed, "random seed"), as_int(count, "sample count"))
        return out, _columns(frame, out)
    if kind == "points" and len(sampler) == 2:
        given = []
        for p in sampler[1]:
            if not isinstance(p, Point2):
                try:
                    x, y = p
                except (TypeError, ValueError):
                    raise ValueError(
                        "sample point %r is not a Point2 or an (x, y) pair" % (p,)) from None
                p = Point2(x, y)
            given.append(p)
        out = [frame.sample(p) for p in given]
        cols = _columns(frame, out)
        outside = np.nonzero(~_contains_mask(frame, out, cols))[0]
        if len(outside):
            raise ValueError("sample point %r lies outside the polygon" % (given[outside[0]],))
        return out, cols
    raise ValueError(
        "sampler must be None, ('grid', resolution), ('random', seed, count) "
        "or ('points', iterable), got %r" % (sampler,)
    )


def _distinct(samples, px, py):
    """[index of the first sample of each distinct point], in index order,
    of the homogeneous samples with float columns (px, py).

    Equal points have equal correctly rounded columns, so two samples
    can be one point only where both of their floats are equal (-0.0
    equals 0.0, and inf equals inf): a gcd-normalised key is built only
    for the samples of such runs, and decides them.
    """
    n = len(samples)
    order = np.lexsort((py, px))
    sx = px[order]
    sy = py[order]
    tie = (sx[1:] == sx[:-1]) & (sy[1:] == sy[:-1])
    shared = np.zeros(n, dtype=bool)
    shared[order[1:][tie]] = True
    shared[order[:-1][tie]] = True
    keep = ~shared
    seen = set()
    for k in np.nonzero(shared)[0].tolist():
        X, Y, W = samples[k]
        g = gcd(X, Y, W)
        key = (X // g, Y // g, W // g)
        if key not in seen:
            seen.add(key)
            keep[k] = True
    return np.nonzero(keep)[0].tolist()


def _scan(P: AnyPolygon, guards, sampler):
    """(frame, samples, depths): the deduplicated homogeneous samples of
    sample_depth in scan order, and the depth at each, with no point built."""
    gset = GuardSet.coerce(guards)
    frame = _Frame(P, gset.guards)
    for g, (x, y) in zip(gset.guards, frame.ints):
        if _locate(frame.walls, x, y, 1) == "exterior":
            raise ValueError("guard %r lies outside the polygon" % (g,))
    corners = frame.corners()
    suspicious, (sx, sy) = _suspicious_points(frame, P, gset)
    extra, (ex, ey) = _sampler_points(frame, sampler)
    samples = corners + suspicious + extra
    cx, cy = _columns(frame, corners)
    px = np.concatenate((cx, sx, ex))
    py = np.concatenate((cy, sy, ey))
    keep = _distinct(samples, px, py)
    unique = [samples[k] for k in keep]
    return frame, unique, _depths(frame, unique, (px[keep], py[keep]))


def sample_depth(P: AnyPolygon, guards, sampler=None, target: Optional[int] = None) -> SampleReport:
    """Depth at a deterministic set of sample points of the closed P.

    The scan always covers the polygon vertices, the guard positions,
    and the dark-ray crossing points and gap midpoints inside P; the
    sampler spec adds more.  With a target, samples below it are
    collected as failing witnesses.
    """
    frame, samples, depths = _scan(P, guards, sampler)
    return SampleReport([(frame.point(s), d) for s, d in zip(samples, depths)], target=target)
