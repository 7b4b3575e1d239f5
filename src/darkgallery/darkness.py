"""Exact certification of coverage depth when guards block each other.

Model: a guard q sees a point p unless some other guard stands strictly
between q and p.  A point is j-dark when at least j distinct guards are
blocked from it; the coverage depth at p is (number of guards) minus its
darkness, and the certificates below report the exact minimum depth over
a closed convex region (polygon or wedge).

Strategy: all guards blocked from p lie on lines through p that carry at
least two guards, so darkness is a sum of per-line counts that are
piecewise constant along each line.  The verifier scales the whole scene
to integer coordinates once, in a ``geometry._Frame`` (the frame the
sampler uses too; this module reads no denominator itself), and takes the
region as the frame's integer halfplanes (``geometry._halfplanes``).  It
clips every line carrying >= 2 guards to them once, all lines in one
float pass (`_clip_lines`) that leaves only near ties and overflows to
``geometry._clip``, and cuts each into its "dark portions" as pieces:
the two dark rays end where the clipped line does, and the gaps between
members lie inside.
The guards and every query point are tested on the same halfplanes.  A
complete set of candidate points is every pairwise crossing of pieces
from distinct lines, every guard position, and one representative per
crossing-free sub-piece.
Three facts let the maximum skip most of it: a crossing is never a guard
position and carries exactly one piece of each line dark there, so its
darkness is the sum of the blocked counts of its pieces (a guard point's
darkness is a count over the lines it is a member of); a piece whose
blocked count is the maximum has no crossing on it, so its one
representative is its only candidate; and only the candidates at the
maximum enter the lexicographic tie-break.  The crossings are a table
of totals in the order of their first hits (`_crossing_table`), with no
point key: a crossing's key is built only where it is reported or must
be compared exactly, and the per-line breakdown is rescanned for the one
reported witness.  The j-dark queries read the same table: one
analysis, built on the first query in a region and held on the
GuardSet, serves every query on that guard set.  A prefix of a guard
set certified to max darkness <= 1 takes an analysis derived from that
one (`_prefix`), with no clip and no scan of its own.

The analysis keeps only what the certificates read: the pieces, one set
of their float columns (`_piece_boxes`, with the blocked counts) that the
scan and the darkest point both read, the crossing table and the darkest
point.  The sampler
(``sampling._suspicious_points``) takes the pieces and makes its own walk
of their exact crossings (`_pair_hits`) for the sample points it needs.

One pair scan (`_pair_scan`) finds every crossing, for the certificates,
the j-dark queries, the sampler and the concurrency check alike.  It
takes one path at every piece count and coordinate size: a sweep along x
(one stable sort of the pieces' float boxes by their left ends) yields
the pairs whose x-spans overlap, in chunks of bounded size, and of those
it keeps a pair only if the boxes overlap in y too, the pieces are not
parallel and have no open end at one point (exact class tests).  Only
the x-overlapping pairs are ever built: on 4n-2 placements, which have
no crossing at all, about one pair in twelve of the triangle.  A float
verdict with a rounding-error bound
derived in ``_filter`` then calls each pair a certain hit, a certain
miss or unsure, and only the unsure pairs are confirmed exactly.
The scan returns arrays: each hit's pieces, and its float parameter on
the first piece with an error bound.  The table groups each row's hits
by that parameter, comparing exactly only hits whose intervals overlap,
and bounds each crossing's x in floats; the witness is chosen on those
bounds, building exact points only for the candidates that may be
leftmost.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, inf
from typing import List, Sequence, Union

import numpy as np

from ._filter import (
    _floats,
    _interval,
    _leftmost,
    _nearest,
    _quotient_bound,
    _rounding_bound,
    _signs,
    _sum_bound,
    _x_bounds,
)
from .geometry import (
    ConvexPolygon,
    Line,
    Point2,
    Wedge,
    _clip,
    _Frame,
    _Frozen,
    _halfplanes,
    _integers,
    as_int,
    primitive_direction,
)

Region = Union[ConvexPolygon, Wedge]


class GuardSet(_Frozen):
    """Ordered collection of pairwise-distinct guard positions, immutable
    to callers; one analysis (_analysis) serves every query on it, and a
    copy starts without it."""

    __slots__ = ("guards", "_analysis")

    def __init__(self, guards: Sequence[Point2]):
        gs = list(guards)
        if not gs:
            raise ValueError("need at least one guard")
        for g in gs:
            if not isinstance(g, Point2):
                raise TypeError("guards must be Point2, got %r" % (g,))
        if len(set(gs)) != len(gs):
            raise ValueError("guards cannot be co-located")
        object.__setattr__(self, "guards", tuple(gs))
        object.__setattr__(self, "_analysis", None)

    def __len__(self):
        return len(self.guards)

    def __iter__(self):
        return iter(self.guards)

    def __getitem__(self, i):
        return self.guards[i]

    def __repr__(self):
        return "GuardSet(%d guards)" % len(self.guards)

    @classmethod
    def coerce(cls, guards) -> "GuardSet":
        if isinstance(guards, cls):
            return guards
        return cls(guards)


class GuardLine:
    """A maximal set of >= 2 collinear guards and their carrier line."""

    __slots__ = ("carrier", "members", "member_indices")

    def __init__(self, carrier: Line, members, member_indices):
        self.carrier = carrier
        self.members = list(members)
        self.member_indices = list(member_indices)

    def __len__(self):
        return len(self.members)

    def __repr__(self):
        return "GuardLine(%d members)" % len(self.members)


class DarkPortion:
    """Maximal sub-interval of a guard line with a constant blocked count.

    The interval is expressed in the parameterization p(t) = anchor + t*axis
    where anchor is the line's first member and axis points toward its last.
    Bounds are open at guard positions; None means unbounded.
    """

    __slots__ = ("line", "lo", "hi", "blocked_count")

    def __init__(self, line: GuardLine, lo, hi, blocked_count: int):
        self.line = line
        self.lo = lo
        self.hi = hi
        self.blocked_count = blocked_count

    def __repr__(self):
        return "DarkPortion((%s, %s), blocked=%d)" % (self.lo, self.hi, self.blocked_count)


class DarknessWitness:
    """A point with its exact darkness and the per-line breakdown."""

    __slots__ = ("point", "darkness", "contributing_lines")

    def __init__(self, point: Point2, darkness: int, contributing_lines):
        self.point = point
        self.darkness = darkness
        self.contributing_lines = list(contributing_lines)

    def __repr__(self):
        return "DarknessWitness(%r, darkness=%d)" % (self.point, self.darkness)


class DepthCertificate:
    """Exact minimum coverage depth over a region with a witness point."""

    __slots__ = ("g", "min_depth", "max_darkness", "witness")

    def __init__(self, g: int, max_darkness: int, witness: DarknessWitness):
        self.g = g
        self.max_darkness = max_darkness
        self.min_depth = g - max_darkness
        self.witness = witness

    def __repr__(self):
        return "DepthCertificate(g=%d, min_depth=%d)" % (self.g, self.min_depth)


class BoundaryCensus:
    """Per-edge guard weights and darkened-vertex bookkeeping.

    edge_weights[i] counts guards on edge i: interior guards count 1,
    a guard sitting on a vertex contributes 1/2 to each incident edge.
    boundary_total is the sum (every boundary guard counted once) and
    identity_holds records whether boundary_total == n + darkened/2.
    """

    __slots__ = (
        "edge_weights",
        "edge_dark_rays",
        "darkened",
        "darkened_vertices",
        "boundary_total",
        "n",
        "applicable",
        "reasons",
        "identity_holds",
    )

    def __init__(self, edge_weights, edge_dark_rays, darkened_vertices, n, applicable, reasons):
        self.edge_weights = list(edge_weights)
        self.edge_dark_rays = list(edge_dark_rays)
        self.darkened_vertices = list(darkened_vertices)
        self.darkened = len(self.darkened_vertices)
        self.boundary_total = sum(self.edge_weights, Fraction(0))
        self.n = n
        self.applicable = applicable
        self.reasons = list(reasons)
        self.identity_holds = self.boundary_total == n + Fraction(self.darkened, 2)

    def __repr__(self):
        return "BoundaryCensus(total=%s, darkened=%d, applicable=%r)" % (
            self.boundary_total,
            self.darkened,
            self.applicable,
        )


# ---------------------------------------------------------------------------
# collinear structure


def _group_collinear(pts):
    """Group the indices of integer points (x, y) by carrier line.

    Returns a list of (dx, dy, c, members) where (dx, dy) is the primitive
    direction, c = dx*y - dy*x for every point on the line, and members is
    a list of (t, index) sorted by the integer parameter t along (dx, dy)
    measured from the lowest-index member.

    Each guard i groups the later guards j by the primitive direction
    (ux, uy) from i to j (one gcd per pair, and one dict per guard).  A
    direction with one later guard is a line of two, whose params are 0
    and the gcd; one with several is a line whose lowest member is i,
    and its other pairs are marked so that its later members skip them.
    """
    n = len(pts)
    marked = [set() for _ in range(n)]
    out = []
    for i, (xi, yi) in enumerate(pts):
        skip = marked[i]
        ahead = {}
        for j in range(i + 1, n):
            if j in skip:
                continue
            xj, yj = pts[j]
            ux, uy = xj - xi, yj - yi
            g = gcd(ux, uy)
            if ux < 0 or (ux == 0 and uy < 0):
                g = -g
            ahead.setdefault((ux // g, uy // g), []).append((g, j))
        for (ux, uy), later in ahead.items():
            c = ux * yi - uy * xi
            if len(later) == 1:
                g, j = later[0]
                out.append((ux, uy, c, [(0, i), (g, j)] if g > 0 else [(0, j), (-g, i)]))
                continue
            # deltas between lattice points of the line are exact integer
            # multiples of its primitive direction: g itself
            withparam = sorted(later + [(0, i)])
            base = withparam[0][0]  # rebase so the first member sits at t = 0
            out.append((ux, uy, c, [(t - base, k) for t, k in withparam]))
            js = sorted(j for _, j in later)
            for a, j in enumerate(js[:-1]):
                marked[j].update(js[a + 1:])
    # deterministic order independent of guard numbering
    out.sort(key=lambda rec: (rec[0], rec[1], rec[2]))
    return out


def _guard_lines(records, guards) -> List[GuardLine]:
    """GuardLine objects for the records of _group_collinear."""
    out = []
    for _ux, _uy, _c, members in records:
        idxs = [i for _, i in members]
        pts = [guards[i] for i in idxs]
        out.append(GuardLine(Line.through(pts[0], pts[-1]), pts, idxs))
    return out


def collinear_groups(guards) -> List[GuardLine]:
    """Maximal groups of >= 2 collinear guards, each with its carrier."""
    gset = GuardSet.coerce(guards)
    return _guard_lines(_group_collinear(_integers(gset.guards)[1]), gset.guards)


def dark_portions(line: GuardLine) -> List[DarkPortion]:
    """Constant-darkness intervals of a guard line.

    Parameterized by p(t) = first_member + t*axis with axis the primitive
    direction toward the last member.  The two unbounded ends block m-1
    guards; each gap between consecutive members blocks m-2.  Gaps that
    block nothing (m == 2) are omitted.
    """
    m = len(line.members)
    axis = primitive_direction(line.members[-1] - line.members[0])
    dd = axis.dot(axis)
    params = [(p - line.members[0]).dot(axis) / dd for p in line.members]
    out = [DarkPortion(line, None, params[0], m - 1)]
    if m >= 3:
        for i in range(m - 1):
            out.append(DarkPortion(line, params[i], params[i + 1], m - 2))
    out.append(DarkPortion(line, params[-1], None, m - 1))
    return out


# ---------------------------------------------------------------------------
# the pair scan
#
# A piece is one straight part of a guard line, anchored at a member guard
# and parameterized as anchor + t*(dx, dy):
#
#     (ax, ay, dx, dy, hin, hid, hi_strict, blocked, line_id)
#
# It covers 0 < t <= hin/hid (hid > 0), open at its anchor because every
# anchor is a guard position; hin is None when the piece never ends, and
# hi_strict marks a far end that is open too (another guard).  blocked is
# the piece's own blocked count.


def _confirm(p, q):
    """Exact crossing test of pieces p and q.

    Returns (un, vn, D) with D > 0 (params un/D on p, vn/D on q) when
    the pieces truly cross, else None.
    """
    D = p[2] * q[3] - p[3] * q[2]
    if D == 0:
        return None
    ex = q[0] - p[0]
    ey = q[1] - p[1]
    un = ex * q[3] - ey * q[2]
    vn = ex * p[3] - ey * p[2]
    if D < 0:
        D, un, vn = -D, -un, -vn
    if un <= 0 or vn <= 0:
        return None
    if p[4] is not None:
        s = un * p[5] - p[4] * D
        if s > 0 or (s == 0 and p[6]):
            return None
    if q[4] is not None:
        s = vn * q[5] - q[4] * D
        if s > 0 or (s == 0 and q[6]):
            return None
    return (un, vn, D)


def _piece_boxes(pieces):
    """(x0, y0, fdx, fdy, lox, hix, loy, hiy, h, unbounded): every
    piece's float anchor, float direction and conservative float box, the
    correctly rounded parameter h = hin/hid of its far end (inf where it
    has none) and the mask of the pieces with no far end, one column per
    piece.

    Every coordinate is rounded to the nearest float and an unbounded end
    becomes +-inf; rounding is monotone, so pieces whose true spans
    overlap keep overlapping boxes at any scale.  The anchors, directions
    and far ends feed the float verdicts of _pair_scan and the candidate
    bounds of _Analysis.darkest.
    """
    ax, ay, dx, dy = ([p[c] for p in pieces] for c in range(4))
    x0, y0, fdx, fdy = _floats(ax), _floats(ay), _floats(dx), _floats(dy)
    x1 = np.where(fdx == 0, x0, np.copysign(inf, fdx))
    y1 = np.where(fdy == 0, y0, np.copysign(inf, fdy))
    h = np.full(len(pieces), inf)
    unbounded = np.ones(len(pieces), dtype=bool)
    for k, (a, b, u, v, hin, hid, *_) in enumerate(pieces):
        if hin is not None:
            x1[k] = _nearest(a * hid + u * hin, hid)
            y1[k] = _nearest(b * hid + v * hin, hid)
            h[k] = _nearest(hin, hid)
            unbounded[k] = False
    return (x0, y0, fdx, fdy, np.minimum(x0, x1), np.maximum(x0, x1),
            np.minimum(y0, y1), np.maximum(y0, y1), h, unbounded)


def _class_ids(keys):
    """Small integers, equal exactly where the keys are equal."""
    ids = {}
    return np.array([ids.setdefault(k, len(ids)) for k in keys], dtype=np.int64)


def _end_classes(pieces):
    """(direction, anchor, far): exact class ids of every piece.

    direction is equal exactly for parallel pieces (the same primitive
    direction up to sign), which never cross: D = 0.  That takes in two
    pieces of one line; it is found once per line id.  anchor and far
    share one numbering of points: the anchor, and the far end where it
    is open (hi_strict); every other far end gets a negative id of its
    own.  Two pieces with an open end at one point lie on distinct lines
    through it (or are parallel), which meet only there, where neither
    piece is: they never cross.
    """
    _, first, line = np.unique(np.array([p[8] for p in pieces], dtype=np.int64),
                               return_index=True, return_inverse=True)
    dirs = []
    for k in first.tolist():
        g = gcd(pieces[k][2], pieces[k][3])
        dx, dy = pieces[k][2] // g, pieces[k][3] // g
        dirs.append((dx, dy) if dx > 0 or (dx == 0 and dy > 0) else (-dx, -dy))
    ids = {}
    anchor = np.array([ids.setdefault((p[0], p[1]), len(ids)) for p in pieces], dtype=np.int64)
    far = -1 - np.arange(len(pieces), dtype=np.int64)
    for k, (ax, ay, dx, dy, hin, hid, strict, *_) in enumerate(pieces):
        if strict:
            X, Y = ax * hid + hin * dx, ay * hid + hin * dy
            g = gcd(X, Y, hid)
            key = (X // g, Y // g) if hid == g else (X // g, Y // g, hid // g)
            far[k] = ids.setdefault(key, len(ids))
    return _class_ids(dirs)[line], anchor, far


# pairs of one chunk of the pair scan's sweep: 64 KiB per int64 index
# column, bounded memory at any piece count, few numpy calls per chunk
_CHUNK = 1 << 13


def _x_overlaps(lox, hix):
    """(P, Q) index arrays, chunk by chunk, of every pair of pieces
    whose x-spans [lox, hix] overlap, each pair once.

    Sort and sweep (the broad phase of Cohen, Lin, Manocha and Ponamgi,
    I-COLLIDE, 1995): in the stable order of lox, the pieces that a piece
    overlaps later in the order are the run after it up to the last lox
    <= its hix, found by one searchsorted.  A chunk is whole runs, at
    most _CHUNK pairs unless one run alone is longer; one cumsum of the
    run lengths and searchsorted give its cut points.
    """
    order = np.argsort(lox, kind="stable")
    R = len(order)
    runs = np.searchsorted(lox[order], hix[order], side="right") - np.arange(1, R + 1)
    total = np.cumsum(runs)
    # pair k of the run after position r is (r, r + 1 + k), and it is
    # pair total[r] - runs[r] + k of the sweep
    shift = total - runs - np.arange(1, R + 1)
    a = done = 0
    while done < (total[-1] if R else 0):
        b = max(a + 1, int(np.searchsorted(total, done + _CHUNK, side="right")))
        rows = np.repeat(np.arange(a, b), runs[a:b])
        later = np.arange(done, total[b - 1])
        later -= np.repeat(shift[a:b], runs[a:b])
        # the pieces at those positions, written over them
        yield order.take(rows, out=rows), order.take(later, out=later)
        a, done = b, total[b - 1]


def _pair_scan(pieces, boxes):
    """(I, J, T, E): every crossing (I[k], J[k]) of pieces from distinct
    lines, as index arrays in increasing (i, j) order, with T[k] the
    float parameter of the crossing on piece I[k] and |t - T[k]| <= E[k];
    boxes is _piece_boxes(pieces).

    One path at every size and scale, over the pairs whose x-spans
    overlap, from the sweep of _x_overlaps in chunks of bounded size.
    The float boxes of _piece_boxes must overlap in y too, and the exact
    class tests of _end_classes drop parallel pieces and pieces with an
    open end at one point.  Each pair left, as i < j, is a certain hit, a
    certain miss, or unsure by the float bounds of un, vn, D (_sum_bound)
    and un/D, vn/D (_quotient_bound); only the unsure pairs go to
    _confirm.  No test drops a crossing or keeps a miss, so the hits are
    those of the plain loop of _confirm over all pairs, and one lexsort
    puts them in its order.  A hit that _confirm settles gets T, its
    correctly rounded exact parameter, and E its _rounding_bound.  The
    far ends' parameters h come from the boxes' columns too.
    """
    x0, y0, dx, dy, lox, hix, loy, hiy, h, unbounded = boxes
    direction, anchor, far = _end_classes(pieces)
    # float bounds on each far end's parameter; an unbounded piece never
    # ends, and a bounded one past the float range has none (NaN)
    eh = np.where(unbounded, 0.0, _rounding_bound(h))
    with np.errstate(invalid="ignore"):
        hlo, hhi = h - eh, h + eh
    mx, my, mdx, mdy = np.abs(x0), np.abs(y0), np.abs(dx), np.abs(dy)
    none = np.empty(0, dtype=np.int64)
    out = [(none, none, np.empty(0), np.empty(0))]
    for p, q in _x_overlaps(lox, hix):
        keep = ((loy[q] <= hiy[p]) & (loy[p] <= hiy[q])
                & (direction[q] != direction[p]) & (anchor[q] != anchor[p]))
        p, q = p[keep], q[keep]
        keep = ~((far[p] == anchor[q]) | (anchor[p] == far[q]) | (far[p] == far[q]))
        p, q = p[keep], q[keep]
        ii, jj = np.minimum(p, q), np.maximum(p, q)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            D = dx[ii] * dy[jj] - dy[ii] * dx[jj]
            ex = x0[jj] - x0[ii]
            ey = y0[jj] - y0[ii]
            sx = mx[ii] + mx[jj]
            sy = my[ii] + my[jj]
            s = np.sign(D)
            su = s * (ex * dy[jj] - ey * dx[jj])
            sv = s * (ex * dy[ii] - ey * dx[ii])
            eu = _sum_bound(sx * mdy[jj] + sy * mdx[jj])
            ev = _sum_bound(sx * mdy[ii] + sy * mdx[ii])
            eD = _sum_bound(mdx[ii] * mdy[jj] + mdy[ii] * mdx[jj])
            aD = np.abs(D)
            room = aD - eD
            (upos, uneg), (vpos, vneg) = _signs(su, eu), _signs(sv, ev)
            # certain misses on the signs of un and vn first: most pairs
            # end here, and the parameters are computed for the rest only
            left = ~((room > 0) & (uneg | vneg))
            ii, jj, aD, eD, su, sv, eu, ev, room, upos, vpos = (
                a[left] for a in (ii, jj, aD, eD, su, sv, eu, ev, room, upos, vpos))
            T = su / aD
            V = sv / aD
            E = _quotient_bound(T, eu, eD, room)
            EV = _quotient_bound(V, ev, eD, room)
            sure = room > 0
            hit = sure & upos & vpos & (T + E < hlo[ii]) & (V + EV < hlo[jj])
            miss = sure & ((T - E > hhi[ii]) | (V - EV > hhi[jj]))
        for k in np.nonzero(~(hit | miss))[0].tolist():
            c = _confirm(pieces[ii[k]], pieces[jj[k]])
            if c is not None:
                hit[k] = True
                T[k] = _nearest(c[0], c[2])
                E[k] = _rounding_bound(T[k])
        out.append((ii[hit], jj[hit], T[hit], E[hit]))
    I, J, T, E = (np.concatenate(col) for col in zip(*out))
    order = np.lexsort((J, I))
    return I[order], J[order], T[order], E[order]


def _pair_hits(pieces):
    """Every confirmed crossing (i, j, un, vn, D) of pieces from distinct
    lines, as _confirm reports it, in increasing (i, j) order: the hits
    of _pair_scan, each with its exact parameters."""
    I, J, _, _ = _pair_scan(pieces, _piece_boxes(pieces))
    for i, j in zip(I.tolist(), J.tolist()):
        yield (i, j) + _confirm(pieces[i], pieces[j])


def _point_key(piece, un, D):
    """Normalized homogeneous key (xn, yn, den) of the point at parameter
    un/D of the piece."""
    xn = piece[0] * D + un * piece[2]
    yn = piece[1] * D + un * piece[3]
    g = gcd(xn, yn, D)
    return (xn // g, yn // g, D // g)


def _crossing_key(pieces, i, j):
    """The _point_key of the crossing of pieces i and j: one exact
    confirmation, for a point that is reported or compared exactly."""
    un, _, D = _confirm(pieces[i], pieces[j])
    return _point_key(pieces[i], un, D)


def _crossing_table(pieces, boxes, blocked):
    """(I, J, XL, XU, total, count): one entry per crossing point of
    pieces from distinct lines, in the order of its first hit in the
    (i, j) order of _pair_scan, with (I, J) that first hit, XL and XU
    float bounds on its x, total the sum of the blocked counts of the
    pieces through it, and count their number; boxes is
    _piece_boxes(pieces) and blocked the pieces' blocked counts.

    A crossing is never a guard position, so each line dark there has one
    piece through it, every two of those pieces cross there, and its
    first hit is (i, j) with i the lowest of them.  The hits of row i at
    one point are those of one exact parameter on piece i.  Hits are
    grouped by it without a key: within a row, hits whose float
    intervals T +- E overlap, directly or through a chain, form a
    cluster; the parameters of a cluster of two or more hits are compared
    exactly, and each distinct one is a group.  Equal parameters always
    share a cluster.  A group of two or more hits marks every pair (j, k)
    of its other pieces: the hits (j, k) are the same point, found again
    in row j, and are skipped there.  Two pieces cross at most once, so a
    mark names one point.
    """
    I, J, T, E = _pair_scan(pieces, boxes)
    n = len(I)
    R = len(pieces)
    lo, hi = _interval(T, E)
    # clusters: sort each row by lo and cut where lo passes the running
    # max of hi in the row; ranking (row, hi) makes one accumulate serve
    # every row, as each row's ranks exceed those of the rows before it
    order = np.lexsort((lo, I))
    rows, los, his = I[order], lo[order], hi[order]
    by_hi = np.lexsort((his, rows))
    rank = np.empty(n, dtype=np.int64)
    rank[by_hi] = np.arange(n)
    reach = his[by_hi][np.maximum.accumulate(rank)]
    cut = np.ones(n, dtype=bool)
    cut[1:] = (rows[1:] != rows[:-1]) | (los[1:] > reach[:-1])
    cluster = np.cumsum(cut) - 1
    group = np.empty(n, dtype=np.int64)
    group[order] = cluster
    tied = np.nonzero(np.bincount(cluster)[cluster] > 1)[0]
    groups = {}
    Il, Jl = I.tolist(), J.tolist()
    for h, c in zip(order[tied].tolist(), cluster[tied].tolist()):
        un, _, D = _confirm(pieces[Il[h]], pieces[Jl[h]])
        g = gcd(un, D)
        groups.setdefault((c, un // g, D // g), []).append(h)
    marks = []
    for gid, hs in enumerate(groups.values(), n):
        group[hs] = gid
        marks += [a * R + b for a, b in combinations(sorted(Jl[h] for h in hs), 2)]
    kept = np.nonzero(~np.isin(I * R + J, marks))[0]
    _, first, inverse = np.unique(group[kept], return_index=True, return_inverse=True)
    first = kept[first]
    total = blocked[I[first]] + np.bincount(inverse, blocked[J[kept]]).astype(np.int64)
    count = np.bincount(inverse) + 1
    o = np.argsort(first)
    first = first[o]
    I, J = I[first], J[first]
    XL, XU = _x_bounds(boxes[0][I], boxes[2][I], T[first], E[first])
    return I, J, XL, XU, total[o], count[o]


def _sub_piece_points(piece, cuts):
    """One scaled point (xn, yn, den) interior to each sub-piece that the
    crossing parameters cuts divide the piece into.

    The cuts are (num, den) pairs with num, den > 0, in increasing order
    of num/den, as a walk of the pair scan gives them once sorted: equal
    cuts may repeat, in any representation.  A cut equal to the one
    before it is skipped by one cross-multiplication, and the first cut
    at or past a bounded piece's far end ends the walk.  A sub-piece's
    point is at the midpoint t of its ends, reduced by one gcd, as
    (ax*den(t) + num(t)*dx, ..., den(t)), so the keys are those of the
    Fraction midpoints.  An unbounded piece ends its last sub-piece at an
    imagined bound two past the last cut, so its point is one past that
    cut.
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


# ---------------------------------------------------------------------------
# clipping every guard line at once
#
# _clip_lines gives what _clip gives on each line, from one float pass
# over lines x halfplanes: halfplane j keeps rate*t >= r with rate =
# a*dx + b*dy and r = c - a*x - b*y, each bounded by _sum_bound; a bound
# of 0 is exact, so a halfplane parallel to the line has rate == 0 certainly.


def _clip_lines(starts, dirs, halfplanes):
    """[_clip(x, y, 1, dx, dy, halfplanes) for (x, y), (dx, dy)] over the
    lines through the integer points starts along dirs, every point in
    the region, so that no clip is empty.

    A line whose rates all have a certain sign gets float bounds T +- E
    on each bound r/rate (_quotient_bound).  An end's candidates are the
    halfplanes whose interval reaches the tightest certain bound; the
    true end is among them.  Where each end has at most one, it is the
    only halfplane setting that end, and its exact (r, rate) is computed
    alone.  A line with a rate of unsure sign, an end with two or more
    candidates (the line through a vertex, or any near tie) or a value
    that is not finite goes to _clip whole.
    """
    if not halfplanes or not starts:
        return [(None, None)] * len(starts)  # the whole plane bounds nothing
    a, b, c = (_floats(col) for col in zip(*halfplanes))
    x, y = (_floats(col)[:, None] for col in zip(*starts))
    dx, dy = (_floats(col)[:, None] for col in zip(*dirs))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pa, pb = a * dx, b * dy
        rate = pa + pb
        erate = _sum_bound(np.abs(pa) + np.abs(pb))
        qa, qb = a * x, b * y
        r = c - qa - qb
        er = _sum_bound(np.abs(c) + np.abs(qa) + np.abs(qb))
        pos, neg = _signs(rate, erate)
        signed = pos | neg
        T = r / np.where(signed, rate, 1.0)
        E = _quotient_bound(T, er, erate, np.where(signed, np.abs(rate) - erate, 1.0))
        lo_top = np.where(pos, T - E, -inf).max(axis=1)
        hi_top = np.where(neg, T + E, inf).min(axis=1)
        lo_cand = pos & (T + E >= lo_top[:, None])
        hi_cand = neg & (T - E <= hi_top[:, None])
        sure = (signed | ((rate == 0) & (erate == 0))).all(axis=1)
        finite = (np.isfinite(r) & np.isfinite(E)).all(axis=1)
    exact = sure & finite & (lo_cand.sum(axis=1) <= 1) & (hi_cand.sum(axis=1) <= 1)
    lo_j = np.where(lo_cand.any(axis=1), lo_cand.argmax(axis=1), -1)
    hi_j = np.where(hi_cand.any(axis=1), hi_cand.argmax(axis=1), -1)
    out = []
    for (X, Y), (DX, DY), ok, jl, jh in zip(starts, dirs, exact.tolist(), lo_j.tolist(),
                                            hi_j.tolist()):
        if not ok:
            out.append(_clip(X, Y, 1, DX, DY, halfplanes))
            continue
        ends = []
        for j, s in ((jl, 1), (jh, -1)):
            if j < 0:
                ends.append(None)
            else:
                A, B, C = halfplanes[j]
                ends.append((s * (C - A * X - B * Y), s * (A * DX + B * DY), j))
        out.append(tuple(ends))
    return out


# ---------------------------------------------------------------------------
# the exact verifier core


class _Analysis:
    """The scene in its frame, the region as the frame's integer
    halfplanes, and the dark-portion pieces clipped to the region.

    Each piece (the tuple layout of the pair scan above) is the in-region
    part of one dark portion, re-anchored at a member guard so its
    parameter interval starts open at 0.  hin is None where the region
    leaves the piece unbounded (wedges, or region None: the whole plane,
    where the unbounded pieces are exactly the dark rays).  Only pieces
    blocking >= 1 guard are kept.  Beyond the pieces it holds what the
    certificates read: the pieces' float columns, the crossing table,
    the guard points' darkness, the darkest point and the rescan of a
    witness.  It keeps the guards
    tuple, not the GuardSet that holds it: a reference cycle would wait
    for the cyclic collector.
    """

    def __init__(self, region: Region, gset: GuardSet):
        self.region = region
        self.guards = gset.guards
        self.frame = _Frame(region, gset.guards)
        ints = self.frame.ints
        self.halfplanes = _halfplanes(region, self.frame.walls)
        for g, (x, y) in zip(gset.guards, ints):
            if self.outside(x, y, 1):
                raise ValueError("guard %r lies outside the region" % (g,))
        self.lines = _group_collinear(ints)
        self._columns = None
        self._crossings = None
        self._darkest = None

        # the whole of each line in the region, from its first member: the
        # guards lie in the region, so lo <= 0 <= t_last <= hi, and each
        # dark ray runs from its extreme member to that end
        clips = _clip_lines([ints[rec[3][0][1]] for rec in self.lines],
                            [rec[:2] for rec in self.lines], self.halfplanes)
        pieces = []
        for line_id, ((ux, uy, c, members), (lo, hi)) in enumerate(zip(self.lines, clips)):
            m = len(members)
            (fx, fy), (lx, ly) = ints[members[0][1]], ints[members[-1][1]]
            t_last = members[-1][0]
            rays = [(fx, fy, -ux, -uy, (None, None) if lo is None else (-lo[0], lo[1])),
                    (lx, ly, ux, uy, (None, None) if hi is None else (hi[0] - t_last * hi[1], hi[1]))]
            for ax, ay, dx, dy, (hin, hid) in rays:
                if hin != 0:  # else the region ends at the anchoring guard
                    pieces.append((ax, ay, dx, dy, hin, hid, False, m - 1, line_id))
            if m >= 3:
                # a gap between members is open at both guards, which lie
                # in the convex region, so it needs no clip
                for (t0, i0), (t1, _) in zip(members, members[1:]):
                    ax, ay = ints[i0]
                    pieces.append((ax, ay, ux, uy, t1 - t0, 1, True, m - 2, line_id))
        self.pieces = pieces

    def outside(self, X: int, Y: int, W: int) -> bool:
        """The point (X/W, Y/W), W > 0, of the frame lies outside the
        closed region: it fails one of the region's integer halfplanes."""
        return any(a * X + b * Y < c * W for a, b, c in self.halfplanes)

    # -- darkness at an exact rational point (scaled frame) --------------
    def darkness_at_scaled(self, xn: int, yn: int, den: int):
        """(darkness, [(line_id, count)]) at the point (xn/den, yn/den)."""
        total = 0
        contributions = []
        ints = self.frame.ints
        for line_id, (ux, uy, c, members) in enumerate(self.lines):
            if ux * yn - uy * xn != c * den:
                continue
            m = len(members)
            ax, ay = ints[members[0][1]]
            # parameter of the query along (ux, uy) vs integer member params
            tn = (xn - ax * den) * ux + (yn - ay * den) * uy
            td = (ux * ux + uy * uy) * den
            below = 0
            at = False
            for t, _ in members:
                s = t * td
                if tn > s:
                    below += 1
                elif tn == s:
                    at = True
                    break
                else:
                    break
            if at:
                cnt = (m - 1) - (1 if below > 0 else 0) - (1 if m - 1 - below > 0 else 0)
            elif below == 0 or below == m:
                cnt = m - 1
            else:
                cnt = m - 2
            if cnt > 0:
                total += cnt
                contributions.append((line_id, cnt))
        return total, contributions

    def columns(self):
        """(boxes, blocked): _piece_boxes of the pieces and their blocked
        counts (int64), one column per piece.  Built once, for the pair
        scan and the candidates of darkest alike; callers must not change
        them."""
        if self._columns is None:
            self._columns = (_piece_boxes(self.pieces),
                             np.array([p[7] for p in self.pieces], dtype=np.int64))
        return self._columns

    # -- pairwise crossings of pieces ------------------------------------
    def crossings(self):
        """_crossing_table of the pieces: the in-region crossings of
        pieces from distinct lines, with their darkness totals, in the
        order their first hits come in one walk of the pair scan.  Built
        once; callers must not change it.

        A crossing is never a guard position (see guard_darkness), so
        every line dark there has exactly one piece through it: the
        darkness there is the sum of their blocked counts.  No point key
        is built: _crossing_key builds one for a crossing that is
        reported or compared exactly.
        """
        if self._crossings is None:
            self._crossings = _crossing_table(self.pieces, *self.columns())
        return self._crossings

    # -- candidate enumeration -------------------------------------------
    def guard_darkness(self):
        """The darkness at every guard point, in guard order.

        No guard lies on a piece of a line it is not a member of (it would
        be a member), and pieces are open at their own members, so a
        crossing is never a guard position.  A guard point lies on exactly
        the lines it is a member of, and on each it is dark to every
        member but its nearest neighbour on either side:
        darkness_at_scaled's count at a member.
        """
        dark = [0] * len(self.guards)
        for _, _, _, members in self.lines:
            last = len(members) - 1
            for k, (_, i) in enumerate(members):
                dark[i] += last - (k > 0) - (k < last)
        return dark

    def witness_from(self, xn, yn, den) -> DarknessWitness:
        """The witness at (xn/den, yn/den): its darkness and contributions
        are darkness_at_scaled's, and GuardLine objects are built for the
        contributing lines only.  Candidates carry a total alone, so this
        one rescan per reported point builds the breakdown."""
        total, contr = self.darkness_at_scaled(xn, yn, den)
        lines = _guard_lines([self.lines[line_id] for line_id, _ in contr], self.guards)
        point = self.frame.point((xn, yn, den))
        return DarknessWitness(point, total, [(gl, cnt) for gl, (_, cnt) in zip(lines, contr)])

    def darkest(self):
        """(xn, yn, den) of the max_darkness witness.  Built once.

        Let top be the maximum over the crossing totals, the guard points
        and every piece's blocked count: it is the maximum darkness, since
        every sub-piece point has darkness equal to its piece's blocked
        count.  Top-level pieces have no crossings: a crossing on a piece
        has darkness >= its blocked count + 1, so a piece with blocked ==
        top has no crossings and its only candidate is the one point of
        _sub_piece_points(piece, ()), at parameter hin/(2*hid), or 1 on an
        unbounded piece.  Only the candidates at top need the tie-break,
        which takes the lexicographically smallest point (the first in
        the order crossings, guards, pieces on equal points), so the
        certificate does not depend on guard ordering.  Every candidate
        has float bounds on its x (_x_bounds), and _leftmost builds exact
        points only for those that may have the least x.  The top pieces,
        their parameters T = h/2 (or 1), anchors x0 and directions fdx
        are read from the columns; on a 4n-2 placement every piece is a
        top piece.
        """
        if self._darkest is None:
            I, J, XL, XU, total, _ = self.crossings()
            (x0, _, fdx, _, _, _, _, _, h, unbounded), blocked = self.columns()
            dark = self.guard_darkness()
            top = max(int(total.max(initial=0)), int(blocked.max(initial=0)), *dark)
            at = np.nonzero(total == top)[0].tolist()
            guards = [xy for d, xy in zip(dark, self.frame.ints) if d == top]
            tops = np.nonzero(blocked == top)[0]
            # a guard is exact at T = 0 on no direction; a piece's point
            # is at the correctly rounded half of hin/hid, or 1
            zero = np.zeros(len(guards))
            T = np.concatenate((zero, np.where(unbounded[tops], 1.0, h[tops] / 2)))
            lo, hi = _x_bounds(np.concatenate((_floats([x for x, _ in guards]), x0[tops])),
                               np.concatenate((zero, fdx[tops])), T, _rounding_bound(T))
            lo = np.concatenate((XL[at], lo))
            hi = np.concatenate((XU[at], hi))

            pieces = self.pieces

            def key(k):
                if k < len(at):
                    return _crossing_key(pieces, I[at[k]], J[at[k]])
                k -= len(at)
                if k < len(guards):
                    return guards[k] + (1,)
                return _sub_piece_points(pieces[tops[k - len(guards)]], ())[0]

            self._darkest = _leftmost(lo, hi, key)[1]
        return self._darkest


def _rows(columns, rows):
    """The columns of _Analysis.columns at the pieces rows, in order: the
    columns a fresh build would give those pieces."""
    boxes, blocked = columns
    return tuple(c[rows] for c in boxes), blocked[rows]


def _analysis(region: Region, gset: GuardSet) -> _Analysis:
    """The analysis of gset in region, held on gset until a query names
    another region object.  It holds its region, so `is` cannot match a
    new region at a reused address."""
    analysis = gset._analysis
    if analysis is None or analysis.region is not region:
        analysis = _Analysis(region, gset)
        object.__setattr__(gset, "_analysis", analysis)
    return analysis


def _prefix(region: Region, full: GuardSet, g: int) -> GuardSet:
    """GuardSet(full.guards[:g]) holding its analysis in region, derived
    from the analysis full holds there.

    Darkness cannot grow when guards are removed.  Where full's analysis
    has max darkness <= 1 (every line has 2 members and no two pieces
    cross), the prefix's lines are full's lines with both members below
    g, in full's order (that of the (ux, uy, c) sort, which guard
    numbering does not change); its pieces are theirs, renumbered; it has
    no crossings either, so it shares full's empty table; its columns are
    full's at its pieces; and its frame is full's with the first g
    points.  Otherwise the prefix gets a fresh analysis.
    """
    prefix = GuardSet(full.guards[:g])
    parent = full._analysis
    if (parent is None or parent.region is not region
            or any(len(rec[3]) != 2 for rec in parent.lines) or len(parent.crossings()[0])):
        analysis = _Analysis(region, prefix)
    else:
        ids = {}
        lines = []
        for line_id, rec in enumerate(parent.lines):
            if rec[3][0][1] < g and rec[3][1][1] < g:
                ids[line_id] = len(lines)
                lines.append(rec)
        analysis = _Analysis.__new__(_Analysis)
        analysis.region = region
        analysis.guards = prefix.guards
        analysis.frame = parent.frame.prefix(g)
        analysis.halfplanes = parent.halfplanes
        analysis.lines = lines
        rows = [k for k, p in enumerate(parent.pieces) if p[8] in ids]
        analysis.pieces = [parent.pieces[k][:8] + (ids[parent.pieces[k][8]],) for k in rows]
        analysis._columns = _rows(parent.columns(), np.array(rows, dtype=np.int64))
        analysis._crossings = parent.crossings()
        analysis._darkest = None
    object.__setattr__(prefix, "_analysis", analysis)
    return prefix


def max_darkness(region: Region, guards) -> DarknessWitness:
    """Exact maximum darkness over the closed region, with witness.

    The witness is the analysis's darkest point (see _Analysis.darkest),
    found once per analysis.  No piece is subdivided at its crossings,
    and only the winner gets its per-line breakdown.
    """
    analysis = _analysis(region, GuardSet.coerce(guards))
    return analysis.witness_from(*analysis.darkest())


def darkness_at(region: Region, guards, p: Point2) -> DarknessWitness:
    """Exact darkness at one point of the closed region."""
    analysis = _analysis(region, GuardSet.coerce(guards))
    X, Y, W = analysis.frame.sample(p)
    if analysis.outside(X, Y, W):
        raise ValueError("query point %r lies outside the region" % (p,))
    return analysis.witness_from(X, Y, W)


def min_depth(region: Region, guards) -> DepthCertificate:
    """Certificate for the minimum number of guards seeing any point."""
    gset = GuardSet.coerce(guards)
    witness = max_darkness(region, gset)
    return DepthCertificate(len(gset), witness.darkness, witness)


def has_j_dark(region: Region, guards, j: int):
    """(found, witness) for a point of the region with darkness >= j.

    A reader of the one analysis that max_darkness shares.  A portion
    whose own blocked count reaches j settles it at once; otherwise the
    first of the guard points, then the first crossing (in the order of
    the analysis's crossings(), that of a row-by-row walk of the pair
    scan) at darkness >= j is the witness, the one point rescanned for
    its per-line breakdown and the one crossing whose key is built.
    """
    if as_int(j, "j") < 1:
        raise ValueError("j must be a positive integer")
    analysis = _analysis(region, GuardSet.coerce(guards))

    # pieces whose own blocked count already reaches j
    for piece in analysis.pieces:
        if piece[7] >= j:
            return True, analysis.witness_from(*_sub_piece_points(piece, ())[0])

    # guard positions (3+ collinear guards darken the middle ones' spots),
    # then the crossings where darkness stacks up
    for d, (x, y) in zip(analysis.guard_darkness(), analysis.frame.ints):
        if d >= j:
            return True, analysis.witness_from(x, y, 1)
    I, J, _, _, total, _ = analysis.crossings()
    at = np.nonzero(total >= j)[0]
    if len(at):
        return True, analysis.witness_from(*_crossing_key(analysis.pieces, I[at[0]], J[at[0]]))
    return False, None


# ---------------------------------------------------------------------------
# general-position diagnostics


def find_concurrent_dark_rays(guards):
    """A point where dark rays from >= 3 distinct guard lines meet.

    The scan is plane-wide (no region clipping): the dark rays are the
    unbounded pieces of the analysis of the whole plane, which leave a
    line's extreme members, open there, pointing away from the other
    members.  Returns (point, count) for the lexicographically smallest
    such point, or None.  The two dark rays of a line are disjoint, so
    the count of a crossing of the rays is its number of lines.
    """
    analysis = _Analysis(None, GuardSet.coerce(guards))
    columns = analysis.columns()
    rows = np.nonzero(columns[0][9])[0]  # the unbounded pieces: the dark rays
    rays = [analysis.pieces[k] for k in rows.tolist()]
    I, J, XL, XU, _, count = _crossing_table(rays, *_rows(columns, rows))
    at = np.nonzero(count >= 3)[0]
    if not len(at):
        return None
    k, key = _leftmost(XL[at], XU[at], lambda k: _crossing_key(rays, I[at[k]], J[at[k]]))
    return analysis.frame.point(key), int(count[at[k]])


# ---------------------------------------------------------------------------
# boundary census


def boundary_census(polygon: ConvexPolygon, guards) -> BoundaryCensus:
    """Count boundary guards per edge and darkened vertices.

    A vertex is darkened when, along one of its incident edges, some
    guard hides behind another: at least two guards on that edge away
    from the vertex itself, so the nearer blocks the farther.

    The identity boundary_total == n + darkened/2 is checked exactly; it
    is only guaranteed when every guard is on the boundary, every edge
    carries a guard in its interior or guards at both endpoints, and the
    placement has no 2-dark point.  Violations are reported in `reasons`
    and flip `applicable` to False while the raw counts stay available.

    The counts read the analysis that the 2-dark query shares: edge i is
    its integer halfplane i, a*x + b*y >= c, and a guard of the convex
    polygon lies on the closed edge i exactly when a*x + b*y == c there;
    a guard at vertex i is the frame's wall i.
    """
    if not isinstance(polygon, ConvexPolygon):
        raise TypeError("boundary_census wants a ConvexPolygon, got %s"
                        % type(polygon).__name__)
    gset = GuardSet.coerce(guards)
    for g in gset.guards:
        if polygon.where(g) == "exterior":
            raise ValueError("guard %r lies outside the polygon" % (g,))
    analysis = _analysis(polygon, gset)
    ints = analysis.frame.ints
    walls = analysis.frame.walls
    n = len(walls)
    on_edge = [sum(a * x + b * y == c for x, y in ints) for a, b, c in analysis.halfplanes]
    reasons = ["guard %r is not on the boundary" % (g,)
               for g, (x, y) in zip(gset.guards, ints)
               if all(a * x + b * y != c for a, b, c in analysis.halfplanes)]
    guarded = set(ints)
    at_vertex = [w in guarded for w in walls]

    weights = []
    ray_counts = []
    for i in range(n):
        at_a = at_vertex[i]
        at_b = at_vertex[(i + 1) % n]
        m = on_edge[i]
        inner = m - at_a - at_b
        # a vertex guard weighs 1/2 on each incident edge
        weights.append(inner + Fraction(at_a + at_b, 2))
        # dark rays running along the edge: every guard but the extreme
        # one hides somebody toward each endpoint, except from the
        # endpoint itself
        ray_counts.append(2 * m - 2 - at_a - at_b if m >= 2 else 0)
        if not inner and not (at_a and at_b):
            reasons.append(
                "edge %d has no interior guard and lacks guards at both endpoints" % i
            )

    darkened = [i for i in range(n) if max(on_edge[i], on_edge[i - 1]) - at_vertex[i] >= 2]

    dark2, _ = has_j_dark(polygon, gset, 2)
    if dark2:
        reasons.append("placement has a 2-dark point")

    return BoundaryCensus(weights, ray_counts, darkened, n, not reasons, reasons)
