"""Exact certification of coverage depth when guards block each other.

Model: a guard q sees a point p unless some other guard stands strictly
between q and p.  A point is j-dark when at least j distinct guards are
blocked from it; the coverage depth at p is (number of guards) minus its
darkness, and the certificates below report the exact minimum depth over
a closed convex region (polygon or wedge).

Strategy: all guards blocked from p lie on lines through p that carry at
least two guards, so darkness is a sum of per-line counts that are
piecewise constant along each line.  The verifier scales the whole scene
to integer coordinates, enumerates the "dark portions" of every line
carrying >= 2 guards and clips them to the region as pieces.  A complete
set of candidate points is every pairwise crossing of pieces from
distinct lines, every guard position, and one representative per
crossing-free sub-piece.  Three facts let the maximum skip most of it:
a crossing is never a guard position and carries exactly one piece of
each line dark there, so its darkness is the sum of the blocked counts
the pair scan recorded through it (only the g guard points are rescanned
over all lines); a piece whose blocked count is the maximum has no
crossing on it, so its one representative is its only candidate; and
only the candidates at the maximum enter the lexicographic tie-break.
The j-dark queries read crossing darkness the same way.

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
from itertools import groupby
from math import gcd, inf, lcm
from operator import itemgetter
from typing import List, Sequence, Union

import numpy as np

from .geometry import (
    ConvexPolygon,
    Line,
    Point2,
    Wedge,
    on_segment,
    primitive_direction,
    strictly_between,
)

Region = Union[ConvexPolygon, Wedge]


class GuardSet:
    """Ordered collection of pairwise-distinct guard positions."""

    __slots__ = ("guards",)

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
# scene scaling: everything becomes integers


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


def _scaled_guards(guards, region=None):
    """(scale, gx, gy): the guards times the lcm of every coordinate
    denominator of the guards and the region, as integer lists."""
    scale = lcm(*_coord_denominators(region, guards))
    return scale, [int(g.x * scale) for g in guards], [int(g.y * scale) for g in guards]


def _int_direction(d: Point2):
    """Reduce a rational direction to primitive integers, same orientation."""
    m = lcm(d.x.denominator, d.y.denominator)
    ix, iy = int(d.x * m), int(d.y * m)
    g = gcd(ix, iy)
    return ix // g, iy // g


class _Scene:
    """Region and guards rescaled by a common factor to integer coords."""

    __slots__ = ("scale", "gx", "gy", "halfplanes", "region")

    def __init__(self, region, guards):
        self.region = region
        s, self.gx, self.gy = _scaled_guards(guards, region)
        self.scale = s
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
            d1x, d1y = _int_direction(region.dir1)
            d2x, d2y = _int_direction(region.dir2)
            hps.append((-d1y, d1x, -d1y * ax + d1x * ay))
            hps.append((d2y, -d2x, d2y * ax - d2x * ay))
        self.halfplanes = hps

    def unscale(self, xn, yn, den) -> Point2:
        s = self.scale
        return Point2(Fraction(xn, den * s), Fraction(yn, den * s))


def _ray_exit(ax, ay, dx, dy, halfplanes):
    """Where {anchor + t*d : t >= 0} leaves the integer halfplanes
    ax+by >= c, as (num, den) with den > 0, or None when it never does.

    The anchor must satisfy every halfplane, so the ray starts inside
    (t = 0) and only halfplanes it runs against can end it.
    """
    hi_n = hi_d = None
    for a, b, c in halfplanes:
        den = a * dx + b * dy
        if den < 0:
            # t <= (c - (a*ax + b*ay)) / den, both sides of the fraction <= 0
            n, d = a * ax + b * ay - c, -den
            if hi_n is None or n * hi_d < hi_n * d:
                hi_n, hi_d = n, d
    return None if hi_n is None else (hi_n, hi_d)


# ---------------------------------------------------------------------------
# collinear structure


def _group_collinear(gx, gy):
    """Group guard indices by carrier line.

    Returns a list of (dx, dy, c, members) where (dx, dy) is the primitive
    direction, c = dx*y - dy*x for every point on the line, and members is
    a list of (t, index) sorted by the integer parameter t along (dx, dy)
    measured from the lowest-index member.
    """
    lines = {}
    n = len(gx)
    for i in range(n):
        xi, yi = gx[i], gy[i]
        for j in range(i + 1, n):
            ux, uy = gx[j] - xi, gy[j] - yi
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
        a = idx[0]
        axp, ayp = gx[a], gy[a]
        withparam = []
        for i in idx:
            # deltas between lattice points of the line are exact integer
            # multiples of its primitive direction
            t = (gx[i] - axp) // ux if ux != 0 else (gy[i] - ayp) // uy
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
    _, gx, gy = _scaled_guards(gset.guards)
    return _guard_lines(_group_collinear(gx, gy), gset.guards)


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
    g = gcd(gcd(abs(xn), abs(yn)), D)
    return (xn // g, yn // g, D // g)


def _sub_piece_points(piece, cuts):
    """One scaled point (xn, yn, den) interior to each sub-piece that the
    crossing parameters cuts, as (num, den) pairs, divide the piece into.

    An unbounded piece ends its last sub-piece at an imagined bound two
    past the last cut, so its point is one past that cut.
    """
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


# ---------------------------------------------------------------------------
# the exact verifier core


class _Analysis:
    """Scaled scene plus the dark-portion pieces clipped to the region.

    Each piece (the tuple layout of the pair scan above) is the in-region
    part of one dark portion, re-anchored at a member guard so its
    parameter interval starts open at 0.  hin is None where the region
    leaves the piece unbounded (wedges, or region None: the whole plane,
    where the unbounded pieces are exactly the dark rays).  Only pieces
    blocking >= 1 guard are kept.
    """

    def __init__(self, region: Region, gset: GuardSet):
        self.gset = gset
        self.scene = _Scene(region, gset.guards)
        gx, gy = self.scene.gx, self.scene.gy
        hps = self.scene.halfplanes
        # the closed region is the intersection of its scaled halfplanes
        for g, x, y in zip(gset.guards, gx, gy):
            if any(a * x + b * y < c for a, b, c in hps):
                raise ValueError("guard %r lies outside the region" % (g,))
        self.lines = _group_collinear(gx, gy)
        self._crossings = None

        pieces = []
        for line_id, (ux, uy, c, members) in enumerate(self.lines):
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
                # the anchor lies in the region, so every piece starts open
                # at its anchoring guard (t = 0) and no piece is a single point
                hi = _ray_exit(gx[anchor], gy[anchor], dx, dy, hps)
                if hi is None:
                    hin = hid = None
                else:
                    hin, hid = hi
                hi_strict = False
                if length is not None and (hin is None or hin >= length * hid):
                    hin, hid, hi_strict = length, 1, True  # open at far guard
                if hin == 0:
                    continue  # the region ends at the anchoring guard
                pieces.append(
                    (gx[anchor], gy[anchor], dx, dy, hin, hid, hi_strict, blocked, line_id))
        self.pieces = pieces

    # -- darkness at an exact rational point (scaled frame) --------------
    def darkness_at_scaled(self, xn: int, yn: int, den: int):
        """(darkness, [(line_id, count)]) at the point (xn/den, yn/den)."""
        total = 0
        contributions = []
        gx, gy = self.scene.gx, self.scene.gy
        for line_id, (ux, uy, c, members) in enumerate(self.lines):
            if ux * yn - uy * xn != c * den:
                continue
            m = len(members)
            a = members[0][1]
            # parameter of the query along (ux, uy) vs integer member params
            tn = (xn - gx[a] * den) * ux + (yn - gy[a] * den) * uy
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
    def crossings(self):
        """All in-region crossing points of pieces from distinct lines.

        Returns (points, events): points maps a normalized homogeneous
        point key (xn, yn, den) to the set of piece indices through it;
        events maps a piece index to its crossing parameters as integer
        (num, den) pairs with den > 0.
        """
        if self._crossings is None:
            points = {}
            events = {}
            for i, j, un, vn, D in _pair_hits(self.pieces):
                points.setdefault(_point_key(self.pieces[i], un, D), set()).update((i, j))
                events.setdefault(i, []).append((un, D))
                events.setdefault(j, []).append((vn, D))
            self._crossings = (points, events)
        return self._crossings

    # -- candidate enumeration -------------------------------------------
    def crossing_candidate(self, key, ids):
        """(darkness, xn, yn, den, contributions) at the crossing key of
        the pieces ids.

        No guard lies on a piece of a line it is not a member of (it would
        be a member), and pieces are open at their own members, so a
        crossing is never a guard position.  Every line with a positive
        count there then has exactly one piece through it, and _pair_hits
        pairs the lowest-indexed of those pieces with each of the others:
        once that piece's row of the scan has ended, the darkness is the
        sum of `blocked` over ids, and the contributions (line_id, blocked)
        sorted by line_id are the list darkness_at_scaled returns.
        """
        contr = sorted([(self.pieces[k][8], self.pieces[k][7]) for k in ids])
        return (sum([cnt for _, cnt in contr]), *key, contr)

    def point_candidates(self):
        """(darkness, xn, yn, den, contributions) at every crossing, in the
        order crossings() found them, then at every guard point.  Only the
        g guard points need a rescan over all lines."""
        points, _ = self.crossings()
        out = [self.crossing_candidate(key, ids) for key, ids in points.items()]
        for x, y in zip(self.scene.gx, self.scene.gy):
            total, contr = self.darkness_at_scaled(x, y, 1)
            out.append((total, x, y, 1, contr))
        return out

    def candidates(self):
        """(darkness, xn, yn, den, contributions) over the complete
        candidate set: crossings, guard points, piece representatives.

        Crossings and guard points come from point_candidates, shared
        with max_darkness.  Every piece is then subdivided at its crossing
        parameters, with one representative per sub-piece.  max_darkness
        needs none of that (a piece at the top level has no crossings);
        the full set is for the sampler, which needs every point.
        """
        _, events = self.crossings()
        out = self.point_candidates()
        # Darkness at a sub-piece point is exactly the piece's blocked
        # count: after subdividing at every crossing parameter no other
        # portion passes through a sub-piece interior, and no guard can lie
        # on a piece at all (a guard collinear with a line's members would
        # itself be a member).
        for idx, piece in enumerate(self.pieces):
            blocked, line_id = piece[7], piece[8]
            for key in _sub_piece_points(piece, events.get(idx, ())):
                out.append((blocked, *key, [(line_id, blocked)]))
        return out

    def witness_from(self, total, xn, yn, den, contr) -> DarknessWitness:
        """The witness at (xn/den, yn/den); GuardLine objects are built for
        the contributing lines only."""
        lines = _guard_lines([self.lines[line_id] for line_id, _ in contr], self.gset.guards)
        point = self.scene.unscale(xn, yn, den)
        return DarknessWitness(point, total, [(gl, cnt) for gl, (_, cnt) in zip(lines, contr)])


def max_darkness(region: Region, guards) -> DarknessWitness:
    """Exact maximum darkness over the closed region, with witness.

    Let top be the maximum over the crossing and guard-point totals of
    point_candidates and every piece's blocked count: it is the maximum
    darkness, since every sub-piece point has darkness equal to its
    piece's blocked count.  Top-level pieces have no crossings: a crossing
    on a piece has darkness >= its blocked count + 1, so a piece with
    blocked == top has no crossing events and its only candidate is the
    one point of _sub_piece_points(piece, ()).  Only the candidates at top
    need the tie-break, which takes the lexicographically smallest point
    (the first in the order crossings, guards, pieces on equal points), so
    the certificate does not depend on guard ordering.
    """
    gset = GuardSet.coerce(guards)
    analysis = _Analysis(region, gset)
    cands = analysis.point_candidates()
    top = max([c[0] for c in cands] + [p[7] for p in analysis.pieces])
    at_top = [c for c in cands if c[0] == top]
    at_top += [(top, *_sub_piece_points(p, ())[0], [(p[8], top)])
               for p in analysis.pieces if p[7] == top]
    best = at_top[0]
    for c in at_top[1:]:
        # lexicographic (x, y) order, cross-multiplied: every den is > 0
        dx = c[1] * best[3] - best[1] * c[3]
        if dx < 0 or (dx == 0 and c[2] * best[3] < best[2] * c[3]):
            best = c
    return analysis.witness_from(*best)


def darkness_at(region: Region, guards, p: Point2) -> DarknessWitness:
    """Exact darkness at one point of the closed region."""
    gset = GuardSet.coerce(guards)
    if not region.contains(p):
        raise ValueError("query point %r lies outside the region" % (p,))
    analysis = _Analysis(region, gset)
    s = analysis.scene.scale
    xq, yq = p.x * s, p.y * s
    den = lcm(xq.denominator, yq.denominator)
    xn, yn = int(xq * den), int(yq * den)
    total, contr = analysis.darkness_at_scaled(xn, yn, den)
    return analysis.witness_from(total, xn, yn, den, contr)


def min_depth(region: Region, guards) -> DepthCertificate:
    """Certificate for the minimum number of guards seeing any point."""
    gset = GuardSet.coerce(guards)
    witness = max_darkness(region, gset)
    return DepthCertificate(len(gset), witness.darkness, witness)


def has_j_dark(region: Region, guards, j: int):
    """(found, witness) for a point of the region with darkness >= j.

    A portion whose own blocked count reaches j settles it at once;
    otherwise the guard positions come next, then the crossings of the
    shared pair scan (`_pair_hits`), read row by row: a crossing's
    darkness is complete when the row of its lowest-indexed piece ends
    (crossing_candidate), so the crossings new in that row are checked
    then, in crossings() order, and the scan stops at the first that
    reaches j.  The scan yields crossings in increasing (i, j) piece order,
    the order of the plain loop over all pairs.
    """
    if j < 1:
        raise ValueError("j must be a positive integer")
    gset = GuardSet.coerce(guards)
    analysis = _Analysis(region, gset)

    # pieces whose own blocked count already reaches j
    for piece in analysis.pieces:
        if piece[7] >= j:
            key = _sub_piece_points(piece, ())[0]
            total, contr = analysis.darkness_at_scaled(*key)
            return True, analysis.witness_from(total, *key, contr)

    # guard positions (3+ collinear guards darken the middle ones' spots)
    gx, gy = analysis.scene.gx, analysis.scene.gy
    for i in range(len(gx)):
        total, contr = analysis.darkness_at_scaled(gx[i], gy[i], 1)
        if total >= j:
            return True, analysis.witness_from(total, gx[i], gy[i], 1, contr)

    # otherwise the darkness must stack up at a portion crossing
    pieces = analysis.pieces
    seen = set()
    for i, hits in groupby(_pair_hits(pieces), key=itemgetter(0)):
        row = {}
        for _, k, un, _, D in hits:
            key = _point_key(pieces[i], un, D)
            if key not in seen:
                row.setdefault(key, {i}).add(k)
        for key, ids in row.items():
            cand = analysis.crossing_candidate(key, ids)
            if cand[0] >= j:
                return True, analysis.witness_from(*cand)
        seen.update(row)
    return False, None


# ---------------------------------------------------------------------------
# general-position diagnostics


def find_collinear_triple(guards):
    """Indices of three collinear guards, or None."""
    gset = GuardSet.coerce(guards)
    _, gx, gy = _scaled_guards(gset.guards)
    for _, _, _, members in _group_collinear(gx, gy):
        if len(members) >= 3:
            return tuple(i for _, i in members[:3])
    return None


def find_concurrent_dark_rays(guards):
    """A point where dark rays from >= 3 distinct guard lines meet.

    The scan is plane-wide (no region clipping).  Returns (point, count)
    for the lexicographically smallest such point, or None.
    """
    analysis = _Analysis(None, GuardSet.coerce(guards))
    # with no region the unbounded pieces are the dark rays, each open at
    # its root guard
    rays = [p for p in analysis.pieces if p[4] is None]
    points = {}
    for i, j, un, _, D in _pair_hits(rays):
        points.setdefault(_point_key(rays[i], un, D), set()).update((rays[i][8], rays[j][8]))
    hits = [(analysis.scene.unscale(*key), len(ids)) for key, ids in points.items()
            if len(ids) >= 3]
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
