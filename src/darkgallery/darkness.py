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
clips every line carrying >= 2 guards to them once (``geometry._clip``)
and cuts it into its "dark portions" as pieces: the two dark rays end
where the clipped line does, and the gaps between members lie inside.
The guards and every query point are tested on the same halfplanes.  A
complete set of candidate
points is every pairwise crossing of pieces from distinct lines, every
guard position, and one representative per crossing-free sub-piece.
Three facts let the maximum skip most of it: a crossing is never a guard
position and carries exactly one piece of each line dark there, so its
darkness is a running total that the walk of the pair scan sums from the
blocked counts of its lowest piece and of each piece that piece meets
there (a guard point's darkness is a count over the lines it is a member
of); a piece whose blocked count is the maximum has no crossing on it,
so its one representative is its only candidate; and only the candidates
at the maximum enter the lexicographic tie-break.  A candidate keeps its
total alone: the per-line breakdown is rescanned for the one reported
witness.  The j-dark queries read the same candidates: one analysis,
built on the first query in a region and held on the GuardSet, serves
every query on that guard set.

One pair scan (`_pair_hits`) finds every crossing, for the certificates,
the j-dark queries and the concurrency check alike.  It takes one path at
every piece count and coordinate size: over fixed-size 2-D tiles of the
pair triangle it keeps a pair only if the pieces' float boxes overlap,
they lie on different lines and have different anchor guards (exact
class tests), and a float sign test with a derived rounding-error bound
cannot rule the crossing out.  Every pair that survives is confirmed
with exact big-integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf
from typing import List, Sequence, Union

import numpy as np

from .geometry import (
    _RATIO,
    _XY,
    ConvexPolygon,
    Line,
    Point2,
    Wedge,
    _clip,
    _Frame,
    _halfplanes,
    _integers,
    on_segment,
    primitive_direction,
    strictly_between,
)

Region = Union[ConvexPolygon, Wedge]


class GuardSet:
    """Ordered collection of pairwise-distinct guard positions, immutable
    to callers; one analysis (_analysis) serves every query on it."""

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

    def __setattr__(self, name, value):
        raise AttributeError("GuardSet is immutable")

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
    """
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


def _nearest(n, d):
    """n/d (d > 0) rounded to the nearest float, or +-inf past the float
    range.  The int / int division is correctly rounded; math.copysign
    would convert n to float and overflow itself."""
    try:
        return n / d
    except OverflowError:
        return inf if n > 0 else -inf


def _piece_boxes(pieces):
    """(x0, y0, fdx, fdy, lox, hix, loy, hiy): every piece's float anchor,
    float direction and conservative float box, one column per piece.

    Every coordinate is rounded to the nearest float and an unbounded end
    becomes +-inf.  Rounding is monotone (a <= b implies round(a) <=
    round(b)), so two pieces whose true spans overlap keep overlapping
    boxes under <=.  That holds however large the scaled coordinates are.
    The anchors and directions feed the sign test of _pair_hits.
    """
    out = np.empty((len(pieces), 8))
    for k, (ax, ay, dx, dy, hin, hid, *_) in enumerate(pieces):
        x0, y0 = _nearest(ax, 1), _nearest(ay, 1)
        if hin is None:
            x1 = x0 if dx == 0 else inf if dx > 0 else -inf
            y1 = y0 if dy == 0 else inf if dy > 0 else -inf
        else:
            x1 = _nearest(ax * hid + dx * hin, hid)
            y1 = _nearest(ay * hid + dy * hin, hid)
        out[k] = (x0, y0, _nearest(dx, 1), _nearest(dy, 1),
                  min(x0, x1), max(x0, x1), min(y0, y1), max(y0, y1))
    return out.T


def _class_ids(keys):
    """Small integers, equal exactly where the keys are equal."""
    ids = {}
    return np.array([ids.setdefault(k, len(ids)) for k in keys], dtype=np.int64)


# Float sign test of _pair_hits.  With u = 2**-53 and every input a
# correctly rounded integer (no overflow), ex = ax_j - ax_i is off by at
# most (2u + u^2)*Ax, Ax = |ax_i| + |ax_j|; each product ex*dy_j adds
# two more roundings, and the final subtraction a third, so
#     |fl(un) - un| <= (5u + O(u^2)) * (Ax*|dy_j| + Ay*|dx_j|)
# and likewise for vn (with dy_i, dx_i), while D = dx_i*dy_j - dy_i*dx_j
# stays within (4u + O(u^2)) * (|dx_i*dy_j| + |dy_i*dx_j|).  Computing
# the bound in floats loses at most five more roundings, a factor
# (1 - u)^5, so 2**-50 = 8u times the float magnitudes covers the error
# with room to spare.  A value beyond its bound has its true sign; inf or
# NaN anywhere fails every comparison and keeps the pair.
_SIGN_SLACK = 2.0 ** -50

# elements of one 2-D tile of the pair scan's masks: bounded memory at
# any piece count, few numpy calls per row
_TILE = 1 << 16


def _tiles(R):
    """(i0, i1, j0, j1) blocks of whole rows covering the pairs i < j of R
    pieces in increasing (i, j) order, each at most _TILE elements unless
    one row alone is longer."""
    i = 0
    while i < R - 1:
        i1 = min(R - 1, i + max(1, _TILE // (R - 1 - i)))
        yield i, i1, i + 1, R
        i = i1


def _pair_hits(pieces):
    """Every confirmed crossing (i, j, un, vn, D) of pieces from distinct
    lines, as _confirm reports it, in increasing (i, j) order.

    One path at every size and scale, over the _tiles of the pair
    triangle.  Three conservative filters run before _confirm: the float
    boxes of _piece_boxes must overlap; two exact class tests drop pairs
    on the same line or with the same anchor guard (they meet only there,
    where both are open); and a float sign test drops a pair
    whose un/D or vn/D is certainly <= 0 (_SIGN_SLACK).  No filter drops a
    crossing, so the hits and their order are those of the plain loop over
    all pairs.
    """
    x0, y0, dx, dy, lox, hix, loy, hiy = _piece_boxes(pieces)
    line = np.array([p[8] for p in pieces])
    anchor = _class_ids((p[0], p[1]) for p in pieces)
    mx, my, mdx, mdy = np.abs(x0), np.abs(y0), np.abs(dx), np.abs(dy)
    for i0, i1, j0, j1 in _tiles(len(pieces)):
        rows, cols = slice(i0, i1), slice(j0, j1)
        mask = (
            (np.arange(j0, j1) > np.arange(i0, i1)[:, None])
            & (lox[cols] <= hix[rows, None])
            & (lox[rows, None] <= hix[cols])
            & (loy[cols] <= hiy[rows, None])
            & (loy[rows, None] <= hiy[cols])
            & (line[cols] != line[rows, None])
            & (anchor[cols] != anchor[rows, None])
        )
        ii, jj = np.nonzero(mask)
        ii += i0
        jj += j0
        with np.errstate(over="ignore", invalid="ignore"):
            D = dx[ii] * dy[jj] - dy[ii] * dx[jj]
            ex = x0[jj] - x0[ii]
            ey = y0[jj] - y0[ii]
            un = ex * dy[jj] - ey * dx[jj]
            vn = ex * dy[ii] - ey * dx[ii]
            sx = mx[ii] + mx[jj]
            sy = my[ii] + my[jj]
            s = np.sign(D)
            keep = ~((np.abs(D) > _SIGN_SLACK * (mdx[ii] * mdy[jj] + mdy[ii] * mdx[jj])) & (
                (s * un < -_SIGN_SLACK * (sx * mdy[jj] + sy * mdx[jj]))
                | (s * vn < -_SIGN_SLACK * (sx * mdy[ii] + sy * mdx[ii]))))
        for i, j in zip(ii[keep].tolist(), jj[keep].tolist()):
            hit = _confirm(pieces[i], pieces[j])
            if hit is not None:
                yield (i, j) + hit


def _point_key(piece, un, D):
    """Normalized homogeneous key (xn, yn, den) of the point at parameter
    un/D of the piece."""
    xn = piece[0] * D + un * piece[2]
    yn = piece[1] * D + un * piece[3]
    g = gcd(xn, yn, D)
    return (xn // g, yn // g, D // g)


def _sub_piece_points(piece, cuts):
    """One scaled point (xn, yn, den) interior to each sub-piece that the
    crossing parameters cuts, as (num, den) pairs with den > 0, divide the
    piece into.

    The cuts are reduced by their gcd, deduplicated and ordered by
    cross-multiplication; a sub-piece's point is at the midpoint t of its
    ends, reduced by one gcd, as (ax*den(t) + num(t)*dx, ..., den(t)), so
    the keys are those of the Fraction midpoints.  An unbounded piece ends
    its last sub-piece at an imagined bound two past the last cut, so its
    point is one past that cut.
    """
    ax, ay, dx, dy, hin, hid = piece[:6]
    ts = set()
    for n, d in cuts:
        g = gcd(n, d)
        ts.add((n // g, d // g))
    bounds = [(0, 1)] + [t for t in sorted(ts, key=_RATIO)
                         if hin is None or t[0] * hid < hin * t[1]]
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
# the exact verifier core


class _Analysis:
    """The scene in its frame, the region as the frame's integer
    halfplanes, and the dark-portion pieces clipped to the region.

    Each piece (the tuple layout of the pair scan above) is the in-region
    part of one dark portion, re-anchored at a member guard so its
    parameter interval starts open at 0.  hin is None where the region
    leaves the piece unbounded (wedges, or region None: the whole plane,
    where the unbounded pieces are exactly the dark rays).  Only pieces
    blocking >= 1 guard are kept.  It keeps the guards tuple, not the
    GuardSet that holds it: a reference cycle would wait for the cyclic
    collector.
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
        self._crossings = None
        self._cuts = None
        self._point_candidates = None

        pieces = []
        for line_id, (ux, uy, c, members) in enumerate(self.lines):
            m = len(members)
            (fx, fy), (lx, ly) = ints[members[0][1]], ints[members[-1][1]]
            # the whole line in the region, from its first member: the
            # guards lie in the region, so lo <= 0 <= t_last <= hi, and
            # each dark ray runs from its extreme member to that end
            lo, hi = _clip(fx, fy, 1, ux, uy, self.halfplanes)
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

    # -- pairwise crossings of pieces ------------------------------------
    def _walk(self, cuts=None):
        """One walk of _pair_hits: {point key (xn, yn, den): darkness} over
        the in-region crossings of pieces from distinct lines, in the order
        their first hits come.  With a dict for cuts, every piece index
        also gets its crossing parameters there, as integer (num, den)
        pairs with den > 0.

        A crossing is never a guard position (see point_candidates), so
        every line dark there has exactly one piece through it, and every
        two of those pieces cross.  Hits come in increasing (i, j) order,
        so the first hit of a key has the lowest of those pieces as i, and
        the later hits (i, j) of that key bring each other line's piece
        once: the darkness is blocked[i] plus their blocked[j].  Hits of
        the key in a later row are skipped.
        """
        pieces = self.pieces
        blocked = [p[7] for p in pieces]
        low = {}
        totals = {}
        for i, j, un, vn, D in _pair_hits(pieces):
            key = _point_key(pieces[i], un, D)
            first = low.get(key)
            if first is None:
                low[key] = i
                totals[key] = blocked[i] + blocked[j]
            elif first == i:
                totals[key] += blocked[j]
            if cuts is not None:
                cuts.setdefault(i, []).append((un, D))
                cuts.setdefault(j, []).append((vn, D))
        return totals

    def crossings(self):
        """{point key (xn, yn, den): darkness} at every crossing, in the
        order of _walk; built once, callers must not change it."""
        if self._crossings is None:
            self._crossings = self._walk()
        return self._crossings

    def cuts(self):
        """{piece index: crossing parameters as (num, den), den > 0}.

        Only the sampler's candidates need them.  On an analysis that has
        no crossings yet, the one walk that finds them also finds the
        crossings; an analysis that a certificate already scanned walks
        the pairs a second time.
        """
        if self._cuts is None:
            cuts = {}
            self._crossings = self._walk(cuts)
            self._cuts = cuts
        return self._cuts

    # -- candidate enumeration -------------------------------------------
    def point_candidates(self):
        """(darkness, xn, yn, den) at every crossing, in crossings() order,
        then at every guard point.  Built once; callers must not change
        the list.

        No guard lies on a piece of a line it is not a member of (it would
        be a member), and pieces are open at their own members, so a
        crossing is never a guard position: its darkness is the total that
        crossings() summed from the blocked counts of its pieces.  A guard
        point lies on exactly the lines it is a member of, and on each it
        is dark to every member but its nearest neighbour on either side:
        darkness_at_scaled's count at a member.
        """
        if self._point_candidates is None:
            out = [(total, *key) for key, total in self.crossings().items()]
            dark = [0] * len(self.guards)
            for _, _, _, members in self.lines:
                last = len(members) - 1
                for k, (_, i) in enumerate(members):
                    dark[i] += last - (k > 0) - (k < last)
            out += [(d, x, y, 1) for d, (x, y) in zip(dark, self.frame.ints)]
            self._point_candidates = out
        return self._point_candidates

    def candidates(self):
        """(darkness, xn, yn, den) over the complete candidate set:
        crossings, guard points, piece representatives.

        Every piece is subdivided at its crossing parameters (cuts()),
        with one representative per sub-piece.  max_darkness needs none of
        that (a piece at the top level has no crossings); the full set is
        for the sampler, which needs every point.
        """
        cuts = self.cuts()
        out = list(self.point_candidates())
        # Darkness at a sub-piece point is exactly the piece's blocked
        # count: after subdividing at every crossing parameter no other
        # portion passes through a sub-piece interior, and no guard can lie
        # on a piece at all (a guard collinear with a line's members would
        # itself be a member).
        for idx, piece in enumerate(self.pieces):
            blocked = piece[7]
            for key in _sub_piece_points(piece, cuts.get(idx, ())):
                out.append((blocked, *key))
        return out

    def witness_from(self, xn, yn, den) -> DarknessWitness:
        """The witness at (xn/den, yn/den): its darkness and contributions
        are darkness_at_scaled's, and GuardLine objects are built for the
        contributing lines only.  Candidates carry a total alone, so this
        one rescan per reported point builds the breakdown."""
        total, contr = self.darkness_at_scaled(xn, yn, den)
        lines = _guard_lines([self.lines[line_id] for line_id, _ in contr], self.guards)
        point = self.frame.point((xn, yn, den))
        return DarknessWitness(point, total, [(gl, cnt) for gl, (_, cnt) in zip(lines, contr)])


def _analysis(region: Region, gset: GuardSet) -> _Analysis:
    """The analysis of gset in region, held on gset until a query names
    another region object.  It holds its region, so `is` cannot match a
    new region at a reused address."""
    analysis = gset._analysis
    if analysis is None or analysis.region is not region:
        analysis = _Analysis(region, gset)
        object.__setattr__(gset, "_analysis", analysis)
    return analysis


def max_darkness(region: Region, guards) -> DarknessWitness:
    """Exact maximum darkness over the closed region, with witness.

    Let top be the maximum over the crossing and guard-point totals of
    point_candidates and every piece's blocked count: it is the maximum
    darkness, since every sub-piece point has darkness equal to its
    piece's blocked count.  Top-level pieces have no crossings: a crossing
    on a piece has darkness >= its blocked count + 1, so a piece with
    blocked == top has no crossings and its only candidate is the one
    point of _sub_piece_points(piece, ()).  Only the candidates at top
    need the tie-break, which takes the lexicographically smallest point
    (the first in the order crossings, guards, pieces on equal points), so
    the certificate does not depend on guard ordering.  The crossings
    need no cuts, and only the winner gets its per-line breakdown.
    """
    analysis = _analysis(region, GuardSet.coerce(guards))
    cands = analysis.point_candidates()
    top = max([c[0] for c in cands] + [p[7] for p in analysis.pieces])
    at_top = [c[1:] for c in cands if c[0] == top]
    at_top += [_sub_piece_points(p, ())[0] for p in analysis.pieces if p[7] == top]
    return analysis.witness_from(*min(at_top, key=_XY))


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
    first of the guard points, then the crossings of point_candidates
    (in crossings() order, that of a row-by-row walk of the pair scan)
    at darkness >= j is the witness, the one point rescanned for its
    per-line breakdown.
    """
    if j < 1:
        raise ValueError("j must be a positive integer")
    analysis = _analysis(region, GuardSet.coerce(guards))

    # pieces whose own blocked count already reaches j
    for piece in analysis.pieces:
        if piece[7] >= j:
            return True, analysis.witness_from(*_sub_piece_points(piece, ())[0])

    # guard positions (3+ collinear guards darken the middle ones' spots),
    # then the crossings where darkness stacks up
    cands = analysis.point_candidates()
    crossings = len(analysis.crossings())
    for cand in cands[crossings:] + cands[:crossings]:
        if cand[0] >= j:
            return True, analysis.witness_from(*cand[1:])
    return False, None


# ---------------------------------------------------------------------------
# general-position diagnostics


def find_collinear_triple(guards):
    """Indices of three collinear guards, or None."""
    gset = GuardSet.coerce(guards)
    for _, _, _, members in _group_collinear(_integers(gset.guards)[1]):
        if len(members) >= 3:
            return tuple(i for _, i in members[:3])
    return None


def find_concurrent_dark_rays(guards):
    """A point where dark rays from >= 3 distinct guard lines meet.

    The scan is plane-wide (no region clipping).  Returns (point, count)
    for the lexicographically smallest such point, or None.
    """
    gset = GuardSet.coerce(guards)
    frame = _Frame(None, gset.guards)
    ints = frame.ints
    # each line's two dark rays leave its extreme members, open there,
    # pointing away from the other members: the unbounded pieces of the
    # plane-wide analysis
    rays = []
    for line_id, (ux, uy, _c, members) in enumerate(_group_collinear(ints)):
        (fx, fy), (lx, ly) = ints[members[0][1]], ints[members[-1][1]]
        blocked = len(members) - 1
        rays.append((fx, fy, -ux, -uy, None, None, False, blocked, line_id))
        rays.append((lx, ly, ux, uy, None, None, False, blocked, line_id))
    points = {}
    for i, j, un, _, D in _pair_hits(rays):
        points.setdefault(_point_key(rays[i], un, D), set()).update((rays[i][8], rays[j][8]))
    hits = [(frame.point(key), len(ids)) for key, ids in points.items() if len(ids) >= 3]
    if not hits:
        return None
    return min(hits, key=lambda hit: (hit[0].x, hit[0].y))


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
    """
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
        # dark rays running along the edge: every guard but the extreme
        # one hides somebody toward each endpoint, except from the
        # endpoint itself
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
