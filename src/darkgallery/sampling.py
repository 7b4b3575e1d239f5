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
chooses them itself (``_candidates``, ``_suspicious_points``): it takes
the dark-ray pieces of the exact analysis of the convex hull and the
float parameters T +- E and V +- EV of every crossing from one pair scan,
summing no darkness and confirming no crossing; one sort orders the cuts
of every piece, exactly only within clusters of overlapping intervals.
Grid or seeded-random samples are layered on top via the sampler spec.

Every sample stands for homogeneous integers (X, Y, W), W > 0, in one
frame: ``geometry._Frame``, the same frame the exact engine scales its
scene with, scales the polygon and the guards to integers once per call,
the crossing points and gap midpoints are points of the exact analysis
(in its own frame, which one integer factor maps into this one), and
grid and seeded-random points are built in the frame's integers.  This
module reads no denominator itself.  The samples travel as one
``_Samples`` batch, which every pass reads: float columns with a
certified bound on their error (0 for correctly rounded ones,
``_columns``), the guard lines each sample was built on, and one store
of exact points that its views (``take``, ``join``) share, each point
built the first time it is read through any of them (a crossing from one
confirmation of its hit, a gap point from its two exact bounds) and then
kept.  The candidates' columns come from their parameters, bounded by
``_filter._affine``, ``_midpoint`` and ``_scaled``; a point whose bound
is not finite is built at once and rounded correctly.  The intervals
order and deduplicate the samples: ``_distinct`` builds a gcd-normalised
key only for samples whose intervals overlap in both columns, and
``_filter._sorted_intervals`` sorts on the x intervals, with the exact
cross-multiplication order ``_filter._XY`` only within clusters of
overlapping ones.  So an exact point is built only where an exact
kernel, a tie or a report reads it: ``sample_depth`` builds one
``Point2`` per sample of its ``SampleReport``, and the CLI certificate
one per witness it reports.

Every verdict is exact.  Depths and polygon membership take one path on
every polygon, convex or not, at every batch size and coordinate scale,
reading one float orientation matrix of points against walls
(``_wall_sides``): a float pass whose only verdicts are strict
comparisons against one certified margin per batch (``_filter._margin``,
where every float bound of the package is derived), grown for each
sample by its input error, then one integer kernel for whatever it
leaves open.  The float pass is laid out
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
blocking along a dark ray needs no arithmetic: a sample built on a
piece knows its line, and a guard on that line is blocked unless it is
the piece's anchor or, on a gap, the next member (``_line_verdicts``).
The rest is decided per guard, over the (sample, other guard) pairs the
float pass leaves open for it: near-collinear pairs off the sample's
lines whose order along the segment does not rule the guard out
(``_off_segment``).  ``visible`` and ``depth_at_sample`` are that kernel
on one pair and one sample.

A sampled report can prove a placement bad (a witness below target) but
never certifies it good -- that asymmetry is inherent, and callers
should treat ``min_sampled_depth`` as an upper bound on the true
minimum depth.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from math import gcd, inf
from typing import List, Optional, Union

import numpy as np

from ._filter import (
    _RATIO,
    _XY,
    _affine,
    _clusters,
    _interval,
    _margin,
    _midpoint,
    _nearest,
    _quotients,
    _scaled,
    _signs,
    _sorted_exact,
    _sorted_intervals,
)
from .darkness import GuardSet, _Analysis, _confirm, _pair_scan, _piece_point
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


class _Samples:
    """Homogeneous samples (X, Y, W), W > 0, of one frame.  Sample k is
    point index[k] of a store, an object array that a batch shares with
    every view of it (``take``): each point is built there on its first
    read through any of them (``_make``, by store index) and kept, so that
    a sample no exact test, tie or report reads is never built, and none
    is built twice.

    Beside them: their float columns px and py, and err, a bound on the
    error of both (0 where they are correctly rounded: _columns); lines,
    the ids of up to two guard lines of the one analysis a sample was
    built on, -1 for none; clear, up to four guards of those lines that
    see it along them, or the guard at its position, -1 for none; and
    member, the [line][guard] membership of that analysis's lines, with a
    last row of False for the id -1.  ``_depths`` decides blocking along
    the lines from these (``_line_verdicts``).
    """

    __slots__ = ("_pts", "_make", "_index", "px", "py", "err", "lines", "clear", "member")

    def __init__(self, pts, make, index, px, py, err, lines, clear, member):
        self._pts = pts  # the store: the points built so far, None elsewhere
        self._make = make
        self._index = index
        self.px = px
        self.py = py
        self.err = err
        self.lines = lines
        self.clear = clear
        self.member = member

    @classmethod
    def exact(cls, frame: _Frame, pts) -> "_Samples":
        """The samples pts, built already, with correctly rounded columns
        and built on no guard line."""
        pts = list(pts)
        n = len(pts)
        px, py = _columns(frame, pts)
        return cls(_objects(pts), None, np.arange(n, dtype=np.int64), px, py, np.zeros(n),
                   np.full((2, n), -1, dtype=np.int64), np.full((4, n), -1, dtype=np.int64),
                   np.zeros((1, len(frame.ints)), dtype=bool))

    def __len__(self):
        return len(self._index)

    def __getitem__(self, k):
        j = int(self._index[k])
        p = self._pts[j]
        if p is None:
            p = self._pts[j] = self._make(j)
        return p

    def __iter__(self):
        return (self[k] for k in range(len(self._index)))

    def take(self, idx) -> "_Samples":
        """The samples at the indices idx, in that order: a view on the
        same store, whose columns are slices of self's."""
        idx = np.asarray(idx, dtype=np.int64)
        return _Samples(self._pts, self._make, self._index[idx], self.px[idx], self.py[idx],
                        self.err[idx], self.lines[:, idx], self.clear[:, idx], self.member)

    @classmethod
    def join(cls, parts) -> "_Samples":
        """The samples of parts, one after another, on one store: the
        stores of their distinct batches one after another, each once
        however many views of it the parts hold, with the points built so
        far, and each part's indices offset by its store's start.  At most
        one part is built on the lines of an analysis; the others' member
        table has the one row of False, and the join keeps the largest."""
        batches = list({id(part._pts): part for part in parts}.values())  # views share _make
        starts = list(accumulate([0] + [len(part._pts) for part in batches]))
        start = {id(part._pts): s for part, s in zip(batches, starts)}
        makes = [part._make for part in batches]

        def make(j):
            i = bisect_right(starts, j) - 1
            return makes[i](j - starts[i])

        return cls(np.concatenate([part._pts for part in batches]), make,
                   np.concatenate([part._index + start[id(part._pts)] for part in parts]),
                   *(np.hstack([getattr(part, name) for part in parts])
                     for name in ("px", "py", "err", "lines", "clear")),
                   max((part.member for part in parts), key=len))


def _corners(frame: _Frame) -> _Samples:
    """The walls, then the guards, as samples built already, each guard
    clear at its own position (_line_verdicts)."""
    corners = _Samples.exact(frame, [(x, y, 1) for x, y in frame.walls + frame.ints])
    corners.clear[0, len(frame.walls):] = np.arange(len(frame.ints))
    return corners


def _objects(items):
    """The items as a one-dimensional object array (tuples stay whole)."""
    return np.fromiter(items, dtype=object, count=len(items))


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
def _contains_mask(frame: _Frame, samples: _Samples):
    """Bool mask: whether each sample of the batch lies in the closed
    polygon of its frame, float-prefiltered.

    The float pass settles samples whose membership is certain: heights
    compare the ends py +- err of each sample's interval with the
    correctly rounded walls, sides under the batch margin (_margin),
    grown for each sample by its input error.
    Only the rest, such as boundary-grazing samples, are re-decided
    exactly by ``_locate``, so the result matches the plain loop bit for
    bit.
    """
    px, py, err = samples.px, samples.py, samples.err
    ax, ay, (o,) = _wall_sides(frame, (px, py))
    left, right = _signs(o, _margin(px, py, ax, ay, err=err))
    below = (py - err)[None, :]
    above = (py + err)[None, :]
    lo = np.minimum(ay[:-1], ay[1:])[:, None]
    hi = np.maximum(ay[:-1], ay[1:])[:, None]
    level = (below > lo) & (above < hi)
    upward = (ay[1:] > ay[:-1])[:, None]
    mask = ((level & np.where(upward, left, right)).sum(axis=0) % 2).astype(bool)
    # parity is certain only when every edge is apart from the ray's
    # height, or level with it and certainly off to one side of the point
    apart = (above < lo) | (below > hi)
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
def _depths(frame: _Frame, samples: _Samples) -> List[int]:
    """[depth at each sample of the batch], float-prefiltered: its float
    columns, their error bounds and the guard lines it was built on.

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
    to row e + 1, so both of its ends are slices.  Every sign is taken
    under the batch margin (_margin), grown for each sample by its input
    error.

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

    Guard blocking is decided per guard q.  Where q lies on a line a
    sample was built on, the line decides it with no arithmetic
    (``_line_verdicts``), and no member of those lines can block q
    elsewhere.  One batch gives every other (sample, guard) pair the
    float pass leaves open for q, and ``_between`` decides them in sample
    order, skipping the samples q already cannot see.  A guard h that is
    not certainly off the segment's line is ruled out by order along the
    segment when it is certainly behind q or past the sample
    (``_off_segment``), in the same float columns and under the same
    margin.
    """
    guards = frame.ints
    walls = frame.walls
    E = len(walls)
    px, py, err = samples.px, samples.py, samples.err
    gx, gy = _columns(frame, guards)
    # side of each edge's line each sample (c4) and each guard (c3) falls on
    ax, ay, (c4, c3) = _wall_sides(frame, (px, py), (gx, gy))
    # one margin per sample, grown by its input error; the guards' sides
    # read no sample, and the least margin covers them
    cert = np.broadcast_to(_margin(px, py, gx, gy, ax, ay, err=err), px.shape)
    p4, n4 = _signs(c4, cert)
    on4 = _on_lines(walls, samples, ~(p4 | n4))
    p3s, n3s = _signs(c3, cert.min(initial=inf))
    on3s = _on_lines(walls, [(x, y, 1) for x, y in guards], ~(p3s | n3s))
    # rows 0..E of each guard's product: the closed walls; rows E+1..: the guards
    xs = np.concatenate((ax, gx))
    ys = np.concatenate((ay, gy))

    lines, clear, member = samples.lines, samples.clear, samples.member
    depths = np.zeros(len(samples), dtype=np.int64)
    for gi, q in enumerate(guards):
        decided, blocked = _line_verdicts(samples, gi)
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
        vis = ~crossing.any(axis=0) & ~blocked
        wall_unsure = vis & ~miss.all(axis=0)
        # guard-blocking: only a guard exactly on the segment's line can
        # block, so certain non-collinearity rules a blocker out
        maybe = ~(pos[E + 1:] | neg[E + 1:])
        maybe[gi] = False
        for s in np.nonzero(wall_unsure)[0]:
            vis[s] = _wall_free(walls, q, samples[s])
        # every (sample, guard) pair left open, in sample order, that the
        # sample's lines and the order along the segment cannot rule out:
        # the first guard between q and a sample blocks it, and settles it
        rows, cols = np.nonzero((maybe & (vis & ~decided)).T)
        left = ~(_off_segment(gx[cols], gy[cols], gx[gi], gy[gi], px[rows], py[rows], cert[rows])
                 | member[lines[0, rows], cols] | member[lines[1, rows], cols]
                 | (clear[:, rows] == cols).any(axis=0))
        rows, cols = rows[left], cols[left]
        for s, h in zip(rows.tolist(), cols.tolist()):
            if vis[s] and _between(guards[h], q, samples[s]):
                vis[s] = False
        depths += vis
    return depths.tolist()


def _line_verdicts(samples: _Samples, gi):
    """(decided, blocked): the samples of the batch whose blocking from
    guard gi the guard lines they were built on decide, and those of them
    it blocks.

    A sample built on a piece lies on the piece's line, and q on that line
    sees it along the line: the guards between are the line's members
    there.  A dark ray leaves its anchor, the line's extreme member, so
    every other member is behind the anchor; a gap lies between its
    anchor and the next member.  So q is blocked unless it is the
    piece's anchor or, on a gap, the next member: the sample's clear
    guards.  Two lines through a sample meet only there, never at a
    guard, so q lies on at most one of them.  A sample at guard i's
    position (clear i, no line) is seen by guard i itself.
    """
    column = samples.member[:, gi]
    on = column[samples.lines[0]] | column[samples.lines[1]]
    mine = (samples.clear == gi).any(axis=0)
    return on | mine, on & ~mine


def _off_segment(hx, hy, qx, qy, sx, sy, cert):
    """Float columns of points h, ends q and samples s -> h is certainly
    not strictly between q and s: h lies behind q, (h - q).(s - q) <
    -cert, or past s, (h - s).(s - q) > cert.

    A point strictly between has (h - q).(s - q) = t*|s - q|^2 > 0 and
    (h - s).(s - q) = (t - 1)*|s - q|^2 < 0 for some 0 < t < 1, and the
    margin cert of each triple covers both values, so neither verdict
    holds for it.
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
    guard stands strictly between the two.  Symmetric in p and q.  Like
    sample_depth, it refuses a guard, or q, outside the closed P; a p
    outside P is not seen.
    """
    frame = _guard_frame(P, GuardSet.coerce(guards).guards + (q,))
    return _sees(frame.walls, frame.ints[:-1], frame.ints[-1], frame.sample(p))


def _guard_frame(P: AnyPolygon, guards) -> _Frame:
    """The frame of P and the guard points, each checked to lie in the
    closed P."""
    frame = _Frame(P, guards)
    for g, (x, y) in zip(guards, frame.ints):
        if _locate(frame.walls, x, y, 1) == "exterior":
            raise ValueError("guard %r lies outside the polygon" % (g,))
    return frame


def depth_at_sample(P: AnyPolygon, guards, p: Point2) -> int:
    """Number of guards that see p (exact, wall- and guard-blocking).

    Like sample_depth, it refuses a guard or a point p outside the
    closed P."""
    frame = _guard_frame(P, GuardSet.coerce(guards).guards)
    s = frame.sample(p)
    if _locate(frame.walls, *s) == "exterior":
        raise ValueError("sample point %r lies outside the polygon" % (p,))
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


def _candidates(frame: _Frame, analysis: _Analysis) -> _Samples:
    """The candidate samples of the analysis's pieces in the frame: the
    point of every hit of the pair scan, in its (i, j) order, on piece i;
    every guard point; then, piece by piece, one point inside each
    sub-piece that the hits cut the piece into.  The analysis's scale
    divides the frame's, and one integer factor f maps its points in.

    Each hit gives two cuts, its parameters T +- E on piece i and V +- EV
    on piece j (_pair_scan).  A cut is dropped where it is the far end of
    its piece, which bounds a sub-piece anyway; only a cut whose interval
    reaches the end's is tested exactly.  One sort of the cuts on (piece,
    lower end) orders them, and _clusters groups those whose intervals
    overlap: only a cluster of two or more is ordered exactly, and equal
    cuts in it are kept once.  Each sub-piece point is at the midpoint of
    its two bounds (0, the cuts, the far end), as _piece_point builds it.

    The columns come from the parameters: ax + t*dx in the analysis's
    floats (_affine), times f / unit (_scaled), with a bound on their
    error.  Where that is not finite, the point is built and its columns
    rounded correctly.  Otherwise a point is built only when read: a
    crossing from one exact confirmation of its hit, a sub-piece point
    from its bounds.  The guard points are built at once.  Each sample
    keeps the lines of its pieces and their clear guards: the anchors,
    and on a gap the next member too (_line_verdicts).  All of this reads
    the analysis's columns (anchor, far and line guards, float anchors
    and directions, far parameters h +- eh); a piece's exact tuple is
    built only where a point or a cut near its far end is read.
    """
    pieces = analysis.pieces
    R = len(pieces)
    cols = analysis.columns()
    x0, y0, fdx, fdy, h, unbounded = cols.x0, cols.y0, cols.dx, cols.dy, cols.h, cols.unbounded
    I, J, T, E, V, EV = _pair_scan(pieces, cols)
    H = len(I)
    hits = {}

    def exact_hit(k):
        """(un, vn, D) of hit k, confirmed once."""
        c = hits.get(k)
        if c is None:
            c = hits[k] = _confirm(pieces[I[k]], pieces[J[k]])
        return c

    def cut(c):
        """The exact parameter (num, den) of cut c: hit c on its first
        piece, or hit c - H on its second."""
        un, vn, D = exact_hit(int(c) % H)
        return (un, D) if c < H else (vn, D)

    cp = np.concatenate((I, J))
    ct = np.concatenate((T, V))
    ce = np.concatenate((E, EV))
    lo, hi = _interval(ct, ce)
    keep = np.ones(2 * H, dtype=bool)
    end = _interval(h, cols.eh)[0]
    for c in np.nonzero(~unbounded[cp] & ~(hi < end[cp]))[0].tolist():
        (n, d), p = cut(c), pieces[cp[c]]
        keep[c] = n * p[5] < p[4] * d
    cuts = np.nonzero(keep)[0]
    order, cluster = _clusters(cp[cuts], lo[cuts], hi[cuts])
    ordered = cuts[order]
    sizes = np.bincount(cluster)
    ends = np.cumsum(sizes)
    same = np.zeros(len(ordered), dtype=bool)
    for stop, size in zip(ends[sizes > 1].tolist(), sizes[sizes > 1].tolist()):
        run = ordered[stop - size:stop].tolist()
        exact = [cut(c) for c in run]
        ranked = _sorted_exact(exact, _RATIO)
        ordered[stop - size:stop] = [run[k] for k in ranked]
        for k in range(1, size):
            (n0, d0), (n1, d1) = exact[ranked[k - 1]], exact[ranked[k]]
            same[stop - size + k] = n0 * d1 == n1 * d0
    dist = ordered[~same]

    # sub-piece m of piece mp[m] runs from bound lref[m] to rref[m]: cut
    # numbers, -1 for 0 on the left and for the far end on the right
    dp = cp[dist]
    count = np.bincount(dp, minlength=R)
    M = R + len(dist)
    mp = np.repeat(np.arange(R), count + 1)
    first = np.cumsum(count + 1) - count - 1
    # the sub-piece that each distinct cut ends: its piece's first, plus
    # the cut's rank among that piece's cuts
    right = first[dp] + np.arange(len(dist)) - (np.cumsum(count) - count)[dp]
    lref = np.full(M, -1, dtype=np.int64)
    rref = np.full(M, -1, dtype=np.int64)
    lref[right + 1] = dist
    rref[right] = dist
    LT = np.zeros(M)
    LE = np.zeros(M)
    LT[right + 1] = ct[dist]
    LE[right + 1] = ce[dist]
    RT = h[mp]
    RE = cols.eh[mp]
    RT[right] = ct[dist]
    RE[right] = ce[dist]
    Tm, Em = _midpoint(LT, LE, RT, RE)

    f = frame.scale // analysis.frame.scale
    on = np.concatenate((I, mp))
    t = np.concatenate((T, Tm))
    e = np.concatenate((E, Em))
    unit = _nearest(f, frame.unit)  # one of the analysis's integers, in columns
    px, ex = _scaled(*_affine(x0[on], fdx[on], t, e), unit)
    py, ey = _scaled(*_affine(y0[on], fdy[on], t, e), unit)
    ints = analysis.frame.ints
    G = len(ints)
    gpts = [(x * f, y * f, 1) for x, y in ints]
    gx, gy = _columns(frame, gpts)
    px = np.concatenate((px[:H], gx, px[H:]))
    py = np.concatenate((py[:H], gy, py[H:]))
    err = np.concatenate((np.maximum(ex[:H], ey[:H]), np.zeros(G), np.maximum(ex[H:], ey[H:])))

    def make(k):
        if k < H:
            un, _, D = exact_hit(k)
            ax, ay, dx, dy = pieces[I[k]][:4]
            X, Y, W = ax * D + un * dx, ay * D + un * dy, D
        else:
            m = k - H - G
            left, rt = int(lref[m]), int(rref[m])
            X, Y, W = _piece_point(pieces[mp[m]], (0, 1) if left < 0 else cut(left),
                                   None if rt < 0 else cut(rt))
        return (X * f, Y * f, W)

    pts = [None] * H + gpts + [None] * M
    with np.errstate(over="ignore", invalid="ignore"):
        bad = np.nonzero(~(np.isfinite(np.abs(px) + err) & np.isfinite(np.abs(py) + err)))[0]
    if len(bad):
        exact = [make(k) for k in bad.tolist()]
        for k, p in zip(bad.tolist(), exact):
            pts[k] = p
        px[bad], py[bad] = _columns(frame, exact)
        err[bad] = 0.0

    # a gap's far end is its next member, clear along the line too
    anchor, nxt, line = cols.anchor, cols.far, cols.line
    n = H + G + M
    lines = np.full((2, n), -1, dtype=np.int64)
    clear = np.full((4, n), -1, dtype=np.int64)
    lines[:, :H] = line[I], line[J]
    clear[:, :H] = anchor[I], nxt[I], anchor[J], nxt[J]
    clear[0, H:H + G] = np.arange(G)
    lines[0, H + G:] = line[mp]
    clear[:2, H + G:] = anchor[mp], nxt[mp]
    member = np.zeros((len(analysis.lines) + 1, G), dtype=bool)
    for k, rec in enumerate(analysis.lines):
        member[k, [i for _, i in rec[3]]] = True
    return _Samples(_objects(pts), make, np.arange(n, dtype=np.int64), px, py, err, lines, clear,
                    member)


def _suspicious_points(frame: _Frame, P: AnyPolygon, gset: GuardSet) -> _Samples:
    """The distinct dark-ray crossing points, guard points and sub-piece
    points that land inside P, as samples of the frame in (x, y) order.

    The rays are the pieces of the exact analysis of the convex hull of P
    and the guards (walls ignored), because a depth dip in the polygon
    can only happen at guard blockings, and those live on the hull's
    dark-ray arrangement; ``_candidates`` gives their points, with float
    columns and error bounds.  Concurrent rays give a point once per pair
    of its pieces, so the candidates are deduplicated (``_distinct``) on
    their intervals, which leave a gcd key only to points whose
    intervals overlap in both columns; the first of each point is kept.
    The inside points are sorted on their x intervals
    (``_filter._sorted_intervals``), with ``_XY`` only within clusters
    of overlapping ones.  The hull corners are vertices or guards, so
    the analysis's scale divides the frame's.
    """
    pts = list(P.vertices) + list(gset.guards)
    region = ConvexPolygon([pts[i] for i in _hull_corners(frame.walls + frame.ints)])
    cands = _candidates(frame, _Analysis(region, gset))
    inside = _inside(frame, cands.take(_distinct(cands)))
    return inside.take(_sorted_intervals(inside, _XY, inside.px - inside.err,
                                         inside.px + inside.err))


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
    return _inside(frame, _Samples.exact(frame, cands))


def _inside(frame: _Frame, samples: _Samples) -> _Samples:
    """The samples in the closed polygon, in their order."""
    return samples.take(np.nonzero(_contains_mask(frame, samples))[0])


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


def _sampler_points(frame: _Frame, sampler) -> _Samples:
    """The sampler's homogeneous samples in the polygon."""
    if sampler is None:
        return _Samples.exact(frame, [])
    kind = sampler[0] if isinstance(sampler, (list, tuple)) and sampler else None
    if kind == "grid" and len(sampler) == 2:
        return _grid_points(frame, as_int(sampler[1], "grid resolution"))
    if kind == "random" and len(sampler) == 3:
        _, seed, count = sampler
        out = _random_points(frame, as_int(seed, "random seed"), as_int(count, "sample count"))
        return _Samples.exact(frame, out)
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
        out = _Samples.exact(frame, [frame.sample(p) for p in given])
        outside = np.nonzero(~_contains_mask(frame, out))[0]
        if len(outside):
            raise ValueError("sample point %r lies outside the polygon" % (given[outside[0]],))
        return out
    raise ValueError(
        "sampler must be None, ('grid', resolution), ('random', seed, count) "
        "or ('points', iterable), got %r" % (sampler,)
    )


def _distinct(samples: _Samples):
    """[index of the first sample of each distinct point], in index order,
    of the batch, whose float columns (px, py) are each within err of
    their exact values (0: correctly rounded).

    Equal points have overlapping intervals in both columns (equal floats
    where correctly rounded; -0.0 equals 0.0, and inf equals inf): the
    clusters of overlapping x intervals (_clusters), then of overlapping
    y intervals within each, leave a gcd-normalised key only to the
    samples of a cluster of two or more, and it decides them.
    """
    n = len(samples)
    px, py, err = samples.px, samples.py, samples.err
    order, cluster = _clusters(np.zeros(n, dtype=np.int64), px - err, px + err)
    tied = np.bincount(cluster)[cluster] > 1
    idx = order[tied]
    order, cluster = _clusters(cluster[tied], (py - err)[idx], (py + err)[idx])
    shared = idx[order[np.bincount(cluster)[cluster] > 1]]
    keep = np.ones(n, dtype=bool)
    keep[shared] = False
    seen = set()
    for k in np.sort(shared).tolist():
        X, Y, W = samples[k]
        g = gcd(X, Y, W)
        key = (X // g, Y // g, W // g)
        if key not in seen:
            seen.add(key)
            keep[k] = True
    return np.nonzero(keep)[0].tolist()


def _scan(P: AnyPolygon, guards, sampler):
    """(frame, samples, depths): the deduplicated homogeneous samples of
    sample_depth in scan order (_Samples: a point is built where it is
    read), and the depth at each."""
    gset = GuardSet.coerce(guards)
    frame = _guard_frame(P, gset.guards)
    samples = _Samples.join([_corners(frame), _suspicious_points(frame, P, gset),
                             _sampler_points(frame, sampler)])
    unique = samples.take(_distinct(samples))
    return frame, unique, _depths(frame, unique)


def sample_depth(P: AnyPolygon, guards, sampler=None, target: Optional[int] = None) -> SampleReport:
    """Depth at a deterministic set of sample points of the closed P.

    The scan always covers the polygon vertices, the guard positions,
    and the dark-ray crossing points and gap midpoints inside P; the
    sampler spec adds more.  With a target, samples below it are
    collected as failing witnesses.
    """
    frame, samples, depths = _scan(P, guards, sampler)
    return SampleReport([(frame.point(s), d) for s, d in zip(samples, depths)], target=target)
