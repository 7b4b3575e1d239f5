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
members lie inside.  The pieces are columns first (`_Pieces`): the guard
each is anchored at, the member a gap ends at, its line, its kind, the
halfplane a ray leaves by, and the bound h +- eh on its far parameter
from the clip pass's float one; a ray that starts on the line of the
halfplane that ends it is empty and dropped, by one exact
[guard][halfplane] table (`_sides`).  A piece's exact integers are built
on its first read, and only the pieces that some exact test reads are
ever built (the lazy exact kernel of Pion and Fabri, 2011).
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
of their float columns (`_Columns`, from one float column per guard and
per line) that the scan and the darkest point both read, the crossing
table and the darkest point.  The sampler (``sampling._candidates``)
takes the columns and the pair scan's float parameters of the crossings,
and builds a sample point exactly (`_confirm`, `_piece_point`) only
where it must.

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
the first piece with an error bound, in one order, by row and the lower
end of that bound.  The table groups each row's hits by that parameter
in that order, with no sort of its own, comparing exactly only hits
whose intervals overlap, and those on exact parameters read from the
line records; it bounds each crossing's x in floats, and the witness is
chosen on those bounds, building exact points only for the candidates
that may be leftmost.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, inf
from typing import List, Sequence, Union

import numpy as np

from ._filter import (
    _floats,
    _interval,
    _leftmost,
    _midpoint,
    _nearest,
    _quotient_bound,
    _rounding_bound,
    _shifted,
    _signs,
    _sorted_clusters,
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
# the piece's own blocked count.  An analysis holds its pieces as columns
# (_Pieces) and builds a tuple where _confirm or _piece_point reads it;
# the scan reads the columns (_Columns).


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


def _exit(ax, ay, dx, dy, halfplane):
    """(hin, hid): the parameter hin/hid, hid > 0, at which the ray from
    (ax, ay) along (dx, dy) leaves the integer halfplane a*x + b*y >= c
    that ends it; hin is 0 where the ray starts on its line."""
    a, b, c = halfplane
    return a * ax + b * ay - c, -(a * dx + b * dy)


class _Columns(namedtuple("_Columns", "anchor far line kind end blocked h eh unbounded direction"
                                      " x0 y0 dx dy lox hix loy hiy")):
    """The pieces as columns, one entry per piece.

    Piece k lies on guard line line[k] and is anchored at guard
    anchor[k].  kind[k] is 0 for the ray from the line's first member,
    along the negated direction (ux, uy) of its record, 1 for the ray
    from its last member and 2 for a gap, which ends open at the next
    member, far[k] (-1 on a ray).  A ray ends where it leaves halfplane
    end[k] (_exit), or never (-1: unbounded).  blocked[k] is the piece's
    blocked count, and h[k] +- eh[k] bounds its far parameter hin/hid
    (inf and 0 where it has none).  direction is equal exactly for
    parallel pieces; (x0, y0) and (dx, dy) are the float anchor and
    direction, and [lox, hix] x [loy, hiy] a float box that holds the
    piece's span.
    """

    __slots__ = ()

    def take(self, rows) -> "_Columns":
        """The columns at the index array rows, in that order."""
        return self._make(c[rows] for c in self)


def _piece_columns(ints, lines, anchor, far, line, kind, end, blocked, h, eh) -> _Columns:
    """The _Columns of pieces given by their int64 columns and far
    parameters, from one float column per guard of ints and per line
    record of lines.

    Parallel pieces lie on lines of one primitive direction, which the
    records sort together: direction numbers the runs of equal (ux, uy).
    Each coordinate is rounded to the nearest float.  A gap's box ends at
    its next member's floats, a bounded ray's at the bounds on ax + h*dx
    that h +- eh gives (_x_bounds), an unbounded one's at +-inf, and a
    piece along an axis keeps its anchor's coordinate there.  Rounding is
    monotone and a bound lo <= x never passes fl(x), so pieces whose
    true spans overlap keep overlapping boxes at any scale (_filter).
    """
    gx, gy = _floats([x for x, _ in ints]), _floats([y for _, y in ints])
    keys = [rec[:2] for rec in lines]
    turns = np.cumsum([0] + [a != b for a, b in zip(keys, keys[1:])])
    sign = np.where(kind == 0, -1.0, 1.0)
    x0, y0 = gx[anchor], gy[anchor]
    dx = sign * _floats([ux for ux, _ in keys])[line]
    dy = sign * _floats([uy for _, uy in keys])[line]
    gap = far >= 0
    unbounded = (end < 0) & ~gap
    boxes = []
    for c0, d, g in ((x0, dx, gx), (y0, dy, gy)):
        lo, hi = (np.where(d == 0, c0, np.where(gap, g[far],
                                                np.where(unbounded, np.copysign(inf, d), e)))
                  for e in _x_bounds(c0, d, h, eh))
        boxes += [np.minimum(c0, lo), np.maximum(c0, hi)]
    return _Columns(anchor, far, line, kind, end, blocked, h, eh, unbounded, turns[line],
                    x0, y0, dx, dy, *boxes)


class _Pieces:
    """The pieces of an analysis: their _Columns, and each piece's tuple
    (the layout above) built from them on its first read and kept, so
    that a piece no exact test reads is never built."""

    __slots__ = ("columns", "_ints", "_lines", "_halfplanes", "_built")

    def __init__(self, columns: _Columns, ints, lines, halfplanes):
        self.columns = columns
        self._ints = ints
        self._lines = lines
        self._halfplanes = halfplanes
        self._built = [None] * len(columns.anchor)

    def __len__(self):
        return len(self._built)

    def __getitem__(self, k):
        p = self._built[k]
        if p is None:
            p = self._built[k] = self._build(int(k))
        return p

    def __iter__(self):
        return (self[k] for k in range(len(self._built)))

    def _build(self, k):
        c = self.columns
        ax, ay = self._ints[c.anchor[k]]
        line, blocked, far, end = (int(col[k]) for col in (c.line, c.blocked, c.far, c.end))
        dx, dy = self._lines[line][:2]
        if c.kind[k] == 0:
            dx, dy = -dx, -dy
        if far >= 0:
            # the next member lies a whole number of steps (dx, dy) on
            fx, fy = self._ints[far]
            return (ax, ay, dx, dy, (fx - ax) // dx if dx else (fy - ay) // dy, 1, True,
                    blocked, line)
        if end < 0:
            return (ax, ay, dx, dy, None, None, False, blocked, line)
        return (ax, ay, dx, dy, *_exit(ax, ay, dx, dy, self._halfplanes[end]), False, blocked,
                line)

    def parameters(self, I, J):
        """[(num, den)]: for each k, the exact parameter num/den, reduced
        with den > 0, at which piece I[k] meets the line of piece J[k],
        read from the anchors and the line records alone, with no piece
        built: the un/D of _confirm where the two pieces cross.

        Line (ux, uy, c) holds the points with ux*y - uy*x = c, and piece
        I[k] is a + t*s*(ux', uy') on a line (ux', uy'), with s = -1 on a
        ray of kind 0, so t*s*(ux*uy' - uy*ux') = c - ux*ay + uy*ax."""
        cols = self.columns
        ints, lines = self._ints, self._lines
        out = []
        for a, flip, li, lj in zip(cols.anchor[I].tolist(), (cols.kind[I] == 0).tolist(),
                                   cols.line[I].tolist(), cols.line[J].tolist()):
            ax, ay = ints[a]
            dx, dy = lines[li][:2]
            ux, uy, c = lines[lj][:3]
            num = c - ux * ay + uy * ax
            den = ux * dy - uy * dx
            if flip != (den < 0):
                num = -num
            den = abs(den)
            g = gcd(num, den)
            out.append((num // g, den // g))
        return out

    def take(self, rows, line=None, lines=None) -> "_Pieces":
        """The pieces at the index array rows, in that order, none built:
        with line ids line into the records lines where given."""
        columns = self.columns.take(rows)
        return _Pieces(columns if line is None else columns._replace(line=line), self._ints,
                       self._lines if lines is None else lines, self._halfplanes)


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


def _pair_scan(pieces, columns: _Columns):
    """(I, J, T, E, V, EV): every crossing (I[k], J[k]), I[k] < J[k], of
    pieces from distinct lines, as index arrays, with T[k] the float
    parameter of the crossing on piece I[k], |t - T[k]| <= E[k], and V[k]
    its parameter on piece J[k], |v - V[k]| <= EV[k]; columns are the
    pieces' _Columns.  The hits come in the stable order of (I, T - E),
    the lower ends of _interval(T, E), in which _crossing_table groups
    them.

    One path at every size and scale, over the pairs whose x-spans
    overlap, from the sweep of _x_overlaps in chunks of bounded size.
    The float boxes must overlap in y too, and exact class tests drop
    parallel pieces (equal direction, D = 0) and pieces with an open end
    at one point: an anchor, or the open far end of a gap, is a guard,
    and every other far end counts as a point of its own.  Two pieces
    with an open end at one point lie on distinct lines through it (or
    are parallel), which meet only there, where neither piece is.  Each
    pair left, as i < j, is a certain hit, a certain miss, or unsure by
    the float bounds of un, vn, D (_sum_bound) and un/D, vn/D
    (_quotient_bound) against the far ends' h +- eh; only the unsure
    pairs go to _confirm, which reads their exact pieces.  No test drops
    a crossing or keeps a miss, so the hits are those of the plain loop
    of _confirm over all pairs.  A hit that _confirm settles gets T and
    V, its correctly rounded exact parameters, and E and EV their
    _rounding_bound.  Each column's chunks are joined, then reordered by
    one lexsort, one column at a time, so that at most one column is held
    twice at once.
    """
    x0, y0, dx, dy = columns.x0, columns.y0, columns.dx, columns.dy
    lox, hix, loy, hiy = columns.lox, columns.hix, columns.loy, columns.hiy
    direction, anchor = columns.direction, columns.anchor
    far = np.where(columns.far >= 0, columns.far, -1 - np.arange(len(anchor)))
    # an unbounded piece never ends (eh = 0), and a bounded one past the
    # float range has no bound (NaN)
    with np.errstate(invalid="ignore"):
        hlo, hhi = columns.h - columns.eh, columns.h + columns.eh
    mx, my, mdx, mdy = np.abs(x0), np.abs(y0), np.abs(dx), np.abs(dy)
    none = np.empty(0, dtype=np.int64)
    cols = [[none], [none]] + [[np.empty(0)] for _ in range(4)]
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
                V[k] = _nearest(c[1], c[2])
                E[k] = _rounding_bound(T[k])
                EV[k] = _rounding_bound(V[k])
        for col, part in zip(cols, (ii, jj, T, E, V, EV)):
            col.append(part[hit])
    # each column replaces its chunks, then its own unordered copy
    for c, parts in enumerate(cols):
        cols[c] = np.concatenate(parts)
    order = np.lexsort((_interval(cols[2], cols[3])[0], cols[0]))
    for c, col in enumerate(cols):
        cols[c] = col[order]
    return tuple(cols)


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


def _crossing_table(pieces, columns: _Columns):
    """(I, J, XL, XU, total, count): one entry per crossing point of
    pieces from distinct lines, in the (i, j) order of its first hit,
    with (I, J) that first hit, XL and XU float bounds on its x, total
    the sum of the blocked counts of the pieces through it, and count
    their number; columns are the pieces' _Columns.

    A crossing is never a guard position, so each line dark there has one
    piece through it, every two of those pieces cross there, and its
    first hit is (i, j) with i the lowest of them and j the next.  The
    hits of row i at one point are those of one exact parameter on piece
    i.  Hits are grouped by it without a key, in the (i, T - E) order of
    _pair_scan: within a row, hits whose float intervals T +- E overlap,
    directly or through a chain, form a cluster (_sorted_clusters); the
    hits of a cluster of two or more take their exact parameters from the
    line records (_Pieces.parameters), and each distinct one is a group.
    Equal parameters always share a cluster.  A group of two or more hits
    marks every pair (j, k) of its other pieces: the hits (j, k) are the
    same point, found again in row j, and are skipped there.  Two pieces
    cross at most once, so a mark names one point.  A group's first hit
    is its least j, and one argsort of i*R + j over the first hits gives
    the table its order.
    """
    I, J, T, E, _, _ = _pair_scan(pieces, columns)
    n = len(I)
    R = len(pieces)
    blocked = columns.blocked
    # each hit's group: its cluster, or for a hit of a cluster of two or
    # more, n + the number of its exact parameter there
    group = _sorted_clusters(I, *_interval(T, E))
    tied = np.nonzero(np.bincount(group)[group] > 1)[0]
    ids = {}
    keys = zip(group[tied].tolist(), pieces.parameters(I[tied], J[tied]))
    group[tied] = n + np.array([ids.setdefault(k, len(ids)) for k in keys], dtype=np.int64)
    # each group's hits in order of j: the first is its first hit, and
    # each pairs with the later ones of its group, a mark per pair
    tied = tied[np.lexsort((J[tied], group[tied]))]
    start = np.ones(len(tied), dtype=bool)
    start[1:] = group[tied[1:]] != group[tied[:-1]]
    bounds = np.append(np.nonzero(start)[0], len(tied))
    later = np.repeat(bounds[1:], np.diff(bounds)) - np.arange(1, len(tied) + 1)
    a = np.repeat(np.arange(len(tied)), later)
    b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(later) - later, later)
    marks = np.sort(np.append(-1, J[tied[a]] * R + J[tied[b]]))
    code = I * R + J
    kept = marks[np.searchsorted(marks, code, side="right") - 1] != code
    members = np.bincount(group[kept])
    dark = np.bincount(group[kept], blocked[J[kept]]).astype(np.int64)
    lead = kept.copy()
    lead[tied[~start]] = False
    first = np.nonzero(lead)[0]
    first = first[np.argsort(code[first])]
    total = blocked[I[first]] + dark[group[first]]
    count = members[group[first]] + 1
    I, J = I[first], J[first]
    XL, XU = _x_bounds(columns.x0[I], columns.dx[I], T[first], E[first])
    return I, J, XL, XU, total, count


def _piece_point(piece, lo=(0, 1), hi=None):
    """The scaled point (xn, yn, den) of the piece at the midpoint t of
    the parameters lo and hi, (num, den) pairs with den > 0; hi None is
    the piece's far end, or lo + 2 where the piece never ends.  t is
    reduced by one gcd, and the point is (ax*den(t) + num(t)*dx, ...,
    den(t)), the key of the Fraction midpoint.  With the defaults it is
    the piece's one representative, at hin/(2*hid), or 1 on an unbounded
    piece.
    """
    ax, ay, dx, dy, hin, hid = piece[:6]
    n0, d0 = lo
    if hi is None:
        hi = (n0 + 2 * d0, d0) if hin is None else (hin, hid)
    n1, d1 = hi
    num = n0 * d1 + n1 * d0
    den = 2 * d0 * d1
    g = gcd(num, den)
    num //= g
    den //= g
    return (ax * den + num * dx, ay * den + num * dy, den)


# ---------------------------------------------------------------------------
# clipping every guard line at once
#
# _clip_lines gives what _clip gives on each line, from one float pass
# over lines x halfplanes: halfplane j keeps rate*t >= r with rate =
# a*dx + b*dy and r = c - a*x - b*y, each bounded by _sum_bound; a bound
# of 0 is exact, so a halfplane parallel to the line has rate == 0 certainly.


def _clip_lines(starts, dirs, halfplanes):
    """(ends, T, E, clipped) of the lines through the integer points
    starts along dirs, every point in the region, so that no clip is
    empty: ends[0][l] and ends[1][l] are the halfplanes that set line l's
    lower and upper bound on t, the j of _clip(x, y, 1, dx, dy,
    halfplanes), or -1 where none does; T +- E bounds each end's
    parameter r/rate; clipped marks the lines that went to _clip, whose
    T are their ends correctly rounded.

    A line whose rates all have a certain sign gets float bounds T +- E
    on each bound r/rate (_quotient_bound).  An end's candidates are the
    halfplanes whose interval reaches the tightest certain bound; the
    true end is among them.  Where each end has at most one, it is the
    only halfplane setting that end, the one _clip names.  A line with a
    rate of unsure sign, an end with two or more candidates (the line
    through a vertex, or any near tie) or a value that is not finite
    goes to _clip, which names the first of tied halfplanes.
    """
    L = len(starts)
    ends = np.full((2, L), -1, dtype=np.int64)
    bound = np.full((2, L), inf)
    err = np.zeros((2, L))
    if not halfplanes or not L:
        return ends, bound, err, np.zeros(L, dtype=bool)  # the whole plane bounds nothing
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
        cands = (pos & (T + E >= lo_top[:, None]), neg & (T - E <= hi_top[:, None]))
        sure = (signed | ((rate == 0) & (erate == 0))).all(axis=1)
        finite = (np.isfinite(r) & np.isfinite(E)).all(axis=1)
    clipped = ~(sure & finite & (cands[0].sum(axis=1) <= 1) & (cands[1].sum(axis=1) <= 1))
    rows = np.arange(L)
    for s, cand in enumerate(cands):
        j = cand.argmax(axis=1)
        ends[s] = np.where(cand.any(axis=1), j, -1)
        bound[s] = np.where(ends[s] < 0, inf, T[rows, j])
        err[s] = np.where(ends[s] < 0, 0.0, E[rows, j])
    for l in np.nonzero(clipped)[0].tolist():
        (X, Y), (DX, DY) = starts[l], dirs[l]
        for s, end in enumerate(_clip(X, Y, 1, DX, DY, halfplanes)):
            if end is None:
                ends[s, l], bound[s, l], err[s, l] = -1, inf, 0.0
            else:
                ends[s, l] = end[2]
                bound[s, l] = _nearest(end[0], end[1])
                err[s, l] = _rounding_bound(bound[s, l])
    return ends, bound, err, clipped


def _sides(ints, halfplanes):
    """[guard][halfplane]: the exact sign of a*x + b*y - c at each
    integer point (x, y) of ints, for each halfplane a*x + b*y >= c: -1
    outside it, 0 on its line, 1 strictly inside.  Decided in floats,
    where the sum's bound (_sum_bound) settles it, and in integers
    elsewhere."""
    a, b, c = (_floats(col)[None, :] for col in zip(*halfplanes)) if halfplanes else (
        np.empty((1, 0)),) * 3
    x, y = (_floats(col)[:, None] for col in zip(*ints))
    with np.errstate(over="ignore", invalid="ignore"):
        qa, qb = a * x, b * y
        v = qa + qb - c
        e = _sum_bound(np.abs(qa) + np.abs(qb) + np.abs(c))
        pos, neg = _signs(v, e)
    sign = pos.astype(np.int8) - neg
    for g, j in zip(*(k.tolist() for k in np.nonzero(~(pos | neg) & (e != 0)))):
        (X, Y), (A, B, C) = ints[g], halfplanes[j]
        sign[g, j] = (A * X + B * Y > C) - (A * X + B * Y < C)
    return sign


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
    blocking >= 1 guard are kept.  The pieces are built as columns, with
    no loop over pieces (_Pieces), and each tuple only when read.  Beyond
    them it holds what the certificates read: the pieces' float columns
    (columns()), the crossing table, the lines of >= 3 members (the only
    ones with gaps, and the only ones that darken a guard point), the
    darkest point and the rescan of a witness.  It keeps the guards
    tuple, not the GuardSet that holds it: a reference cycle would wait
    for the cyclic collector.
    """

    def __init__(self, region: Region, gset: GuardSet):
        self.region = region
        self.guards = gset.guards
        self.frame = _Frame(region, gset.guards)
        ints = self.frame.ints
        self.halfplanes = _halfplanes(region, self.frame.walls)
        sides = _sides(ints, self.halfplanes)
        for g, out in zip(gset.guards, (sides < 0).any(axis=1).tolist()):
            if out:
                raise ValueError("guard %r lies outside the region" % (g,))
        self.lines = lines = _group_collinear(ints)
        self._crossings = None
        self._darkest = None

        # the whole of each line l in the region, from its first member:
        # the guards lie in the region, so lo <= 0 <= t_last <= hi.  Its
        # dark rays run from the first member back to lo, h = -lo, and
        # from the last on to hi, h = hi - t_last: rays 2l and 2l + 1
        first, last, t_last, size = list(zip(*[(rec[3][0][1], rec[3][-1][1], rec[3][-1][0],
                                                len(rec[3])) for rec in lines])) or [()] * 4
        L = len(lines)
        ends, T, E, clipped = _clip_lines([ints[i] for i in first], [rec[:2] for rec in lines],
                                          self.halfplanes)
        F = np.zeros((2, L))
        F[1] = _floats(t_last)
        h, eh = (c.T.ravel() for c in _shifted(T * np.array([[-1.0], [1.0]]), E, F))
        anchor = np.array([first, last], dtype=np.int64).T.ravel()
        end = ends.T.ravel()
        line = np.repeat(np.arange(L), 2)
        kind = np.tile(np.arange(2), L)
        unbounded = end < 0
        h[unbounded], eh[unbounded] = inf, 0.0
        # the far ends of the rays of lines that _clip settled, exactly
        for k in np.nonzero(clipped[line] & ~unbounded)[0].tolist():
            ux, uy = lines[k // 2][:2]
            ax, ay = ints[anchor[k]]
            hin, hid = _exit(ax, ay, ux if k % 2 else -ux, uy if k % 2 else -uy,
                             self.halfplanes[end[k]])
            h[k] = _nearest(hin, hid)
            eh[k] = _rounding_bound(h[k])
        # a ray whose anchor lies on the line of the halfplane that ends it
        # is empty: the region ends at the anchoring guard
        keep = unbounded.copy()
        keep[~unbounded] = sides[anchor[~unbounded], end[~unbounded]] != 0
        blocked = np.repeat(np.array(size, dtype=np.int64) - 1, 2)

        # a gap between members is open at both guards, which lie in the
        # convex region, so it needs no clip; only lines of >= 3 members
        # have gaps (and darken their members' points: guard_darkness)
        self._long = [l for l, m in enumerate(size) if m >= 3]
        gaps = [(i0, i1, l, t1 - t0, size[l] - 2) for l in self._long
                for (t0, i0), (t1, i1) in zip(lines[l][3], lines[l][3][1:])]
        ga, gf, gl, gt, gb = (list(c) for c in zip(*gaps)) if gaps else ([],) * 5
        gh = _floats(gt)
        cols = [np.concatenate((c[keep], np.array(g, dtype=c.dtype))) for c, g in (
            (anchor, ga), (np.full(2 * L, -1, dtype=np.int64), gf), (line, gl),
            (kind, [2] * len(gaps)), (end, [-1] * len(gaps)), (blocked, gb), (h, gh),
            (eh, _rounding_bound(gh)))]
        # each line's rays, then its gaps, line by line
        order = np.argsort(cols[2], kind="stable")
        self.pieces = _Pieces(_piece_columns(ints, lines, *(c[order] for c in cols)), ints, lines,
                              self.halfplanes)

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

    def columns(self) -> _Columns:
        """The _Columns of the pieces, for the pair scan, the candidates
        of darkest and the sampler alike; callers must not change them.
        Reading them builds no piece."""
        return self.pieces.columns

    # -- pairwise crossings of pieces ------------------------------------
    def crossings(self):
        """_crossing_table of the pieces: the in-region crossings of
        pieces from distinct lines, with their darkness totals, in the
        (i, j) order of their first hits.  Built once; callers must not
        change it.

        A crossing is never a guard position (see guard_darkness), so
        every line dark there has exactly one piece through it: the
        darkness there is the sum of their blocked counts.  No point key
        is built: _crossing_key builds one for a crossing that is
        reported or compared exactly.
        """
        if self._crossings is None:
            self._crossings = _crossing_table(self.pieces, self.columns())
        return self._crossings

    # -- candidate enumeration -------------------------------------------
    def guard_darkness(self):
        """The darkness at every guard point, in guard order.

        No guard lies on a piece of a line it is not a member of (it would
        be a member), and pieces are open at their own members, so a
        crossing is never a guard position.  A guard point lies on exactly
        the lines it is a member of, and on each it is dark to every
        member but its nearest neighbour on either side:
        darkness_at_scaled's count at a member.  A line of two members
        darkens neither, so only the lines of >= 3 are read.
        """
        dark = [0] * len(self.guards)
        for line_id in self._long:
            members = self.lines[line_id][3]
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
        _piece_point(piece), at parameter hin/(2*hid), or 1 on an
        unbounded piece.  Only the candidates at top need the tie-break,
        which takes the lexicographically smallest point (the first in
        the order crossings, guards, pieces on equal points), so the
        certificate does not depend on guard ordering.  Every candidate
        has float bounds on its x (_x_bounds), and _leftmost builds exact
        points only for those that may have the least x.  The top pieces,
        their parameters T +- E, the _midpoint of 0 and h +- eh (or 1),
        anchors x0 and directions dx are read from the columns, and only
        the pieces that may be leftmost are built; on a 4n-2 placement
        every piece is a top piece.
        """
        if self._darkest is None:
            I, J, XL, XU, total, _ = self.crossings()
            cols = self.columns()
            dark = self.guard_darkness()
            top = max(int(total.max(initial=0)), int(cols.blocked.max(initial=0)), *dark)
            at = np.nonzero(total == top)[0].tolist()
            guards = [xy for d, xy in zip(dark, self.frame.ints) if d == top]
            tops = np.nonzero(cols.blocked == top)[0]
            # a guard is exact at T = 0 on no direction; a piece's point is
            # at half its far parameter, or at 1 = 2/2 where it has none
            zero = np.zeros(len(guards))
            T, E = _midpoint(0.0, 0.0,
                             np.concatenate((zero, np.where(cols.unbounded[tops], 2.0,
                                                            cols.h[tops]))),
                             np.concatenate((zero, cols.eh[tops])))
            lo, hi = _x_bounds(np.concatenate((_floats([x for x, _ in guards]), cols.x0[tops])),
                               np.concatenate((zero, cols.dx[tops])), T, E)
            lo = np.concatenate((XL[at], lo))
            hi = np.concatenate((XU[at], hi))

            pieces = self.pieces

            def key(k):
                if k < len(at):
                    return _crossing_key(pieces, I[at[k]], J[at[k]])
                k -= len(at)
                if k < len(guards):
                    return guards[k] + (1,)
                return _piece_point(pieces[tops[k - len(guards)]])

            self._darkest = _leftmost(lo, hi, key)[1]
        return self._darkest


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
    has max darkness <= 1 (no line has 3 members, _long, and no two
    pieces cross), the prefix's lines are full's lines with both members
    below g, in full's order (that of the (ux, uy, c) sort, which guard
    numbering does not change); its pieces are theirs, renumbered; it has
    no crossings either, so it shares full's empty table; its columns are
    full's at its pieces, none of them built; and its frame is full's
    with the first g points.  Otherwise the prefix gets a fresh analysis.
    """
    prefix = GuardSet(full.guards[:g])
    parent = full._analysis
    if parent is None or parent.region is not region or parent._long or len(parent.crossings()[0]):
        analysis = _Analysis(region, prefix)
    else:
        kept = np.array([rec[3][0][1] < g and rec[3][1][1] < g for rec in parent.lines],
                        dtype=bool)
        lines = [rec for rec, k in zip(parent.lines, kept.tolist()) if k]
        line = parent.columns().line
        rows = np.nonzero(kept[line])[0]
        ids = (np.cumsum(kept) - 1)[line[rows]]
        analysis = _Analysis.__new__(_Analysis)
        analysis.region = region
        analysis.guards = prefix.guards
        analysis.frame = parent.frame.prefix(g)
        analysis.halfplanes = parent.halfplanes
        analysis.lines = lines
        analysis.pieces = parent.pieces.take(rows, ids, lines)
        analysis._long = []
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
    the analysis's crossings(), the (i, j) order of their first hits) at
    darkness >= j is the witness, the one point rescanned for
    its per-line breakdown and the one crossing whose key is built.
    """
    if as_int(j, "j") < 1:
        raise ValueError("j must be a positive integer")
    analysis = _analysis(region, GuardSet.coerce(guards))

    # pieces whose own blocked count already reaches j
    at = np.nonzero(analysis.columns().blocked >= j)[0]
    if len(at):
        return True, analysis.witness_from(*_piece_point(analysis.pieces[at[0]]))

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
    rows = np.nonzero(analysis.columns().unbounded)[0]  # the dark rays
    rays = analysis.pieces.take(rows)
    I, J, XL, XU, _, count = _crossing_table(rays, rays.columns)
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
    on = _sides(ints, analysis.halfplanes) == 0
    on_edge = on.sum(axis=0).tolist()
    reasons = ["guard %r is not on the boundary" % (g,)
               for g, edge in zip(gset.guards, on.any(axis=1).tolist()) if not edge]
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
