"""Guard placements that reach the tight counts for convex regions.

Three regimes, dispatched by ``plan``:

* depth k <= n: k guards at polygon vertices (every dark ray leaves the
  polygon immediately).
* n < k < 4n-2: k+1 guards, taken as a prefix of the full 4n-2
  placement.  Removing guards never increases darkness at any point --
  a blocked guard needs its blocker, and both survive only in supersets
  -- so every subset of a no-2-dark placement is itself no-2-dark.
* k >= 4n-2: k+2 guards in general position (no three collinear, no
  three of their pairwise lines concurrent), which caps darkness at 2.

The centerpiece is ``place_4n_minus_2``: three guards clustered near
each vertex plus one "elbow" guard per triangle of a serpentine
triangulation, engineered so that every dark ray exits the polygon
before meeting another.  Its scaffold is built on integers: one
geometry._Frame scales P, every intermediate point (dividing points,
elbow hits, exit and fence points, snap targets) is homogeneous
integers (X, Y, W), W > 0, in that frame, every line is the primitive
integer cross product of two points, and every accept test is the sign
of a line at a point.  Guard coordinates are snapped to short dyadic
parameters in frames that travel with the polygon (ratios along edges,
coordinates in per-vertex triangles), rounded from integer ratios, so
each snapped guard is integral in a power-of-two extension of P's
frame.  That keeps the verifier fast and the construction exactly
equivariant under orientation-preserving affine maps.  Only the guards
become ``Point2``; the rest of the scaffold does so once, for the
placement returned.  Every placement is certified by the exact verifier
before being returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Tuple, Union

from .darkness import GuardSet, _prefix, max_darkness
from .geometry import (
    ConvexPolygon,
    Halfplane,
    Line,
    Point2,
    Wedge,
    _forward_step,
    _Frame,
    _halfplanes,
    _homogeneous,
    as_int,
    centroid,
    convex_hull,
    halfplane_intersection,
)

Region = Union[ConvexPolygon, Wedge]

REGIME_VERTEX = "vertex-guards"      # g = k
REGIME_ONE_EXTRA = "one-extra"       # g = k + 1
REGIME_TWO_EXTRA = "two-extra"       # g = k + 2

# dyadic snapping: start at this many fractional bits, escalate if the
# rounded point violates a strict constraint.  Kept low on purpose: short
# denominators keep the verifier's scaled integer coordinates, and so its
# big-integer arithmetic, short.
_SNAP_BITS = 12
_SNAP_STEPS = 10

# eps halves every 4 attempts while the snapping bits cycle 12/16/20/24:
# 36 attempts reach eps = 1/1024, which thin polygons such as the quad
# (0, 0), (10^6, 0), (10^6, 3), (0, 10^6) need
_MAX_EPS_RETRIES = 36


class ConstructionError(RuntimeError):
    """A placement failed its own exact verification.

    Carries the offending darkness witness when one exists; seeing this
    in the wild means a construction invariant is broken, not that the
    input is invalid.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class RegimePlan:
    """Guard budget for covering an n-gon to depth k."""

    __slots__ = ("n", "k", "regime", "g")

    def __init__(self, n: int, k: int):
        as_int(k, "k")
        if as_int(n, "n") < 3:
            raise ValueError("a polygon has at least 3 vertices")
        if k < 1:
            raise ValueError("coverage depth must be at least 1")
        self.n = n
        self.k = k
        if k <= n:
            self.regime = REGIME_VERTEX
            self.g = k
        elif k < 4 * n - 2:
            self.regime = REGIME_ONE_EXTRA
            self.g = k + 1
        else:
            self.regime = REGIME_TWO_EXTRA
            self.g = k + 2

    def __repr__(self):
        return "RegimePlan(n=%d, k=%d, %s, g=%d)" % (self.n, self.k, self.regime, self.g)


def plan(n: int, k: int) -> RegimePlan:
    """How many guards depth-k coverage of a convex n-gon takes."""
    return RegimePlan(n, k)


def place_vertex_guards(P: ConvexPolygon, k: int) -> GuardSet:
    """k guards at vertices of P; every dark ray is exterior.

    A line through two vertices of a strictly convex polygon meets it in
    exactly the chord between them, so the open rays beyond either guard
    never re-enter and the placement covers to depth k.
    """
    n = len(P.vertices)
    if not 1 <= as_int(k, "k") <= n:
        raise ValueError("vertex placement needs 1 <= k <= n, got k=%d, n=%d" % (k, n))
    return GuardSet(P.vertices[:k])


# ---------------------------------------------------------------------------
# serpentine triangulation


class ZigzagTriangulation:
    """Serpentine triangulation of a convex polygon.

    path is a vertex order alternating between the two ends of the
    index range, so consecutive path vertices always cut off a triangle
    whose base is a polygon edge.  apex_base maps each internal path
    vertex (a triangle apex) to the index j of its base edge v_j v_j+1;
    the two path endpoints own no triangle.
    """

    __slots__ = ("path", "apex_base", "endpoints")

    def __init__(self, path, apex_base, endpoints):
        self.path = list(path)
        self.apex_base = dict(apex_base)
        self.endpoints = tuple(endpoints)

    def triangles(self):
        """(apex_index, base_index) pairs, in path order."""
        return [(a, self.apex_base[a]) for a in self.path[1:-1]]

    def __repr__(self):
        return "ZigzagTriangulation(%d triangles)" % len(self.apex_base)


def zigzag(P: ConvexPolygon) -> ZigzagTriangulation:
    """Serpentine order v0, v_{n-1}, v1, v_{n-2}, ... and its triangles."""
    n = len(P.vertices)
    lo, hi = 0, n - 1
    path = []
    take_lo = True
    while lo <= hi:
        if take_lo:
            path.append(lo)
            lo += 1
        else:
            path.append(hi)
            hi -= 1
        take_lo = not take_lo

    apex_base = {}
    for t in range(1, n - 1):
        a, b = path[t - 1], path[t + 1]
        if (a + 1) % n == b:
            apex_base[path[t]] = a
        elif (b + 1) % n == a:
            apex_base[path[t]] = b
        else:  # cannot happen for the alternating order above
            raise AssertionError("zigzag neighbours %d, %d are not a polygon edge" % (a, b))
    return ZigzagTriangulation(path, apex_base, (path[0], path[-1]))


# ---------------------------------------------------------------------------
# homogeneous integers: points (X, Y, W), W > 0, and lines (a, b, c), with
# a*X + b*Y + c*W = 0 on the line


def _primitive(t):
    """The integer triple t divided by the gcd of its entries, signs
    kept: equal points, and equal oriented lines, give equal triples."""
    d = gcd(*t)
    return t[0] // d, t[1] // d, t[2] // d


def _join(p, q):
    """The primitive line through the distinct points p and q: at a
    point r, a*X + b*Y + c*W is a positive multiple of the determinant
    of p, q and r, so it is positive when r is left of p -> q."""
    px, py, pw = p
    qx, qy, qw = q
    return _primitive((py * qw - pw * qy, pw * qx - px * qw, px * qy - py * qx))


def _meet(line, other):
    """The primitive point where two lines cross, or None when they are
    parallel or one line."""
    a, b, c = line
    e, f, g = other
    x, y, w = b * g - c * f, c * e - a * g, a * f - b * e
    if w == 0:
        return None
    return _primitive((x, y, w) if w > 0 else (-x, -y, -w))


def _side(line, p) -> int:
    """+1 when p is on the positive side of line, -1 on the negative
    side, 0 on it."""
    v = line[0] * p[0] + line[1] * p[1] + line[2] * p[2]
    return (v > 0) - (v < 0)


def _halfplanes_of(lines):
    """The closed positive sides of lines, as Halfplanes of the affine
    plane X / W, Y / W."""
    return [Halfplane(Line(a, b, -c)) for a, b, c in lines]


def _lerp(p, q, num: int, den: int):
    """The point p + (num/den)*(q - p), den > 0, over den * W_p * W_q."""
    (px, py, pw), (qx, qy, qw) = p, q
    keep = den - num
    return (keep * px * qw + num * qx * pw, keep * py * qw + num * qy * pw, den * pw * qw)


def _edge_param(v, u, p):
    """(num, den), den > 0, with p = v + (num/den)*(u - v), for the
    integer points v and u (W = 1) and the point p on line vu."""
    (vx, vy, _), (ux, uy, _), (X, Y, W) = v, u, p
    dx, dy = ux - vx, uy - vy
    return (X - vx * W) * dx + (Y - vy * W) * dy, W * (dx * dx + dy * dy)


# ---------------------------------------------------------------------------
# dyadic snapping in affine-covariant frames


def _dyadic(num: int, den: int, bits: int) -> int:
    """r with r / 2**bits the multiple of 2**-bits nearest num / den,
    den > 0 (ties toward +infinity); exact."""
    return ((num << (bits + 1)) + den) // (den << 1)


def _snap_in_frame(target, origin, ax1, ax2, w: int, accept, bits: int):
    """Snap the point target to dyadic coordinates (a, b) in the frame
    (origin + a*ax1 + b*ax2) / w, for integer pairs origin, ax1 and ax2
    and w > 0.

    a = rel x ax2 / det and b = ax1 x rel / det, for target's offset rel
    from origin / w and det = ax1 x ax2, are integer ratios, rounded at
    bits, bits + 4, ... fractional bits; a candidate is homogeneous
    integers over w * 2**grid.  The frame rides along under affine maps
    of the whole scene, so the snapped point is exactly equivariant even
    though its dyadic parameters are absolute.  Returns the first
    candidate that passes accept(), else target if it passes, else None.
    """
    (ox, oy), (e1x, e1y), (e2x, e2y) = origin, ax1, ax2
    det = e1x * e2y - e1y * e2x
    if det == 0:
        return None
    tx, ty, tw = target
    rx, ry = tx * w - ox * tw, ty * w - oy * tw
    na, nb, den = rx * e2y - ry * e2x, e1x * ry - e1y * rx, tw * det
    if den < 0:
        na, nb, den = -na, -nb, -den
    for step in range(_SNAP_STEPS):
        grid = bits + 4 * step
        ra, rb = _dyadic(na, den, grid), _dyadic(nb, den, grid)
        cand = ((ox << grid) + ra * e1x + rb * e2x, (oy << grid) + ra * e1y + rb * e2y,
                w << grid)
        if accept(cand):
            return cand
    return target if accept(target) else None


def _snap_along_edge(v, u, num: int, den: int, bits: int):
    """The edge guard v + t*(u - v) for integer points v and u: the
    first t that rounds reach / 4 at bits, bits + 4, ... fractional bits
    and keeps 0 < t < reach = num / den (den > 0), else reach / 4 itself
    if it does, else None."""
    for step in range(_SNAP_STEPS):
        grid = bits + 4 * step
        r = _dyadic(num, 4 * den, grid)
        if 0 < r and r * den < num << grid:
            return _lerp(v, u, r, 1 << grid)
    return _lerp(v, u, num, 4 * den) if num > 0 else None


# ---------------------------------------------------------------------------
# the 4n-2 construction


class ConstructionScaffold:
    """Every intermediate point of the 4n-2 construction, for inspection.

    Indexed by vertex: dividing points before/after each vertex, elbow
    guards (apexes only), the exit points bracketing each vertex, safe
    regions, the three per-vertex guards, and the auxiliary crossing
    point used to fence in the third guard.  _build_scaffold fills the
    guards and passes the other fields as pending homogeneous points;
    they are built on first read (_fill), so a caller that keeps only
    the guards, such as construct, never builds them.
    """

    __slots__ = (
        "polygon", "eps", "zz", "before", "after", "elbow",
        "exit_before", "exit_after", "safe_region", "x", "y", "z", "fence", "_pending",
    )

    _LAZY = ("before", "after", "exit_before", "exit_after", "safe_region", "fence")

    def __init__(self, polygon, eps, zz, pending):
        n = len(polygon.vertices)
        self.polygon = polygon
        self.eps = eps
        self.zz = zz
        self.elbow: Dict[int, Point2] = {}
        self.x: List[Optional[Point2]] = [None] * n
        self.y: List[Optional[Point2]] = [None] * n
        self.z: List[Optional[Point2]] = [None] * n
        self._pending = pending

    def __getattr__(self, name):
        # only reached for an unset slot: a field still pending
        if name in self._LAZY and self._pending is not None:
            self._fill()
            return getattr(self, name)
        raise AttributeError(name)

    def guards(self) -> List[Point2]:
        """Canonical guard order: per-vertex triples, then elbows."""
        out = []
        n = len(self.polygon.vertices)
        for i in range(n):
            out.extend((self.x[i], self.y[i], self.z[i]))
        for a in self.zz.path[1:-1]:
            out.append(self.elbow[a])
        return out

    def _fill(self):
        """Turn the homogeneous points _build_scaffold left pending into
        the fields that are not guards."""
        frame, before, after, exit_before, exit_after, safe, fence = self._pending
        pt = frame.point
        self.before = [pt(p) for p in before]
        self.after = [pt(p) for p in after]
        self.exit_before = [pt(p) for p in exit_before]
        self.exit_after = [pt(p) for p in exit_after]
        self.safe_region = [ConvexPolygon([pt(p) for p in ring]) for ring, _ in safe]
        self.fence = [pt(p) for p in fence]
        self._pending = None

    def __repr__(self):
        return "ConstructionScaffold(n=%d, eps=%s)" % (len(self.polygon.vertices), self.eps)


class _Infeasible(Exception):
    """Internal: this eps produced a degenerate scaffold; retry smaller."""


def _build_scaffold(P: ConvexPolygon, eps: Fraction,
                    bits: int = _SNAP_BITS) -> ConstructionScaffold:
    """The 4n-2 scaffold for dividing parameter eps, on homogeneous
    integers of one _Frame of P, or _Infeasible.

    Returns a ConstructionScaffold whose guards (x, y, z, elbow) are
    filled; its other fields stay pending, as homogeneous points, until
    first read.
    """
    frame = _Frame(P, [])
    verts = [(vx, vy, 1) for vx, vy in frame.walls]
    n = len(verts)
    zz = zigzag(P)
    num, den = eps.as_integer_ratio()

    # dividing points: eps of the way from each vertex along both edges,
    # all over den, so that every vertex has the snapping frame
    # (before + a*(vertex - before) + b*(after - before)) / den of integer
    # pairs, and a corner triangle (before, vertex, after), ccw
    before, after, frames, corner = [], [], [], []
    for i, v in enumerate(verts):
        b = _lerp(v, verts[i - 1], num, den)
        a = _lerp(v, verts[(i + 1) % n], num, den)
        (bx, by, _), (ax, ay, _) = b, a
        before.append(b)
        after.append(a)
        frames.append(((bx, by), (den * v[0] - bx, den * v[1] - by), (ax - bx, ay - by)))
        corner.append((_join(b, v), _join(v, a), _join(a, b)))

    def inside(lines):
        return lambda q: all(_side(line, q) > 0 for line in lines)

    # elbow guards, one per triangle, nudged off the dividing chord
    # toward the apex (the safe side: it only pulls the rays through the
    # elbow closer to the apex) and snapped in the local triangle frame
    elbow = {}
    for apex, j in zz.triangles():
        base_mid = _lerp(after[j], before[(j + 1) % n], 1, 2)
        hit = _meet(_join(before[apex], after[apex]), _join(verts[apex], base_mid))
        if hit is None:
            raise _Infeasible("elbow lines for vertex %d are degenerate" % apex)
        target = _lerp(hit, verts[apex], 1, 256)
        ell = _snap_in_frame(target, *frames[apex], den, inside(corner[apex]), bits)
        if ell is None:
            raise _Infeasible("no room for the elbow guard at vertex %d" % apex)
        elbow[apex] = ell

    # exit points and safe regions, each kept as its ccw ring of corners
    # and the lines of its edges.  An exit point lies on its edge's line,
    # so it is strictly inside a segment of that line exactly when the
    # segment's ends lie strictly on either side of the exit line.
    exit_before, exit_after, safe = list(before), list(after), []
    for i in range(n):
        if i in elbow:
            j = zz.apex_base[i]
            ell = elbow[i]
            exit_b = _join(after[j], ell)
            exit_a = _join(before[(j + 1) % n], ell)
            b = _meet(exit_b, _join(verts[i - 1], verts[i]))
            a = _meet(exit_a, _join(verts[i], verts[(i + 1) % n]))
            if b is None or a is None:
                raise _Infeasible("exit lines at vertex %d are parallel to the edges" % i)
            if _side(exit_b, verts[i]) * _side(exit_b, before[i]) >= 0:
                raise _Infeasible("exit point before vertex %d misses its segment" % i)
            if _side(exit_a, verts[i]) * _side(exit_a, after[i]) >= 0:
                raise _Infeasible("exit point after vertex %d misses its segment" % i)
            exit_before[i], exit_after[i] = b, a
            ring = [b, verts[i], a, ell]
            edges = [_join(p, q) for p, q in zip(ring, ring[1:] + ring[:1])]
            # four corners that all turn left wind around once
            if any(_side(e, p) <= 0 for e, p in zip(edges, ring[2:] + ring[:2])):
                raise _Infeasible("safe region at vertex %d is degenerate" % i)
            safe.append((ring, edges))
        else:
            safe.append(([before[i], verts[i], after[i]], corner[i]))

    # first two guards per vertex: one on the clockwise edge a quarter
    # of the way to the exit point, one near the middle of the chord
    # between the two quarter points
    x, base_end = [], []
    for i, v in enumerate(verts):
        u, w = verts[i - 1], verts[(i + 1) % n]
        edge = _snap_along_edge(v, u, *_edge_param(v, u, exit_before[i]), bits)
        if edge is None:
            raise _Infeasible("cannot place the edge guard at vertex %d" % i)
        x.append(edge)

        reach, per = _edge_param(v, w, exit_after[i])
        base_end.append(_lerp(v, w, _dyadic(reach, 4 * per, bits + 8), 1 << (bits + 8)))

    y = []
    for i in range(n):
        lines = safe[i][1]
        t_num, t_den = 1, 2
        if i in elbow:
            # keep the second guard on the ccw side of the apex-to-elbow
            # line (turned to be its positive side), so its dark rays exit
            # past the elbow's wedges
            split = _join(verts[i], elbow[i])
            wanted = _side(split, after[i])
            if wanted == 0:
                raise _Infeasible("elbow line at vertex %d runs along the edge" % i)
            if wanted < 0:
                split = (-split[0], -split[1], -split[2])
            lines = list(lines) + [split]
            # the split line at the edge guard and at the base end, both
            # over the product of their W's
            (xx, xy, xw), (qx, qy, qw) = x[i], base_end[i]
            ex = (split[0] * xx + split[1] * xy + split[2] * xw) * qw
            eq = (split[0] * qx + split[1] * qy + split[2] * qw) * xw
            if eq <= 0:
                raise _Infeasible("base chord at vertex %d is on the wrong side" % i)
            if ex <= 0:
                # halfway from where the chord crosses the split line,
                # ex / (ex - eq) of the way along it, to the base end
                t_num, t_den = eq - 2 * ex, 2 * (eq - ex)
        guard = _snap_in_frame(_lerp(x[i], base_end[i], t_num, t_den), *frames[i], den,
                               inside(lines), bits)
        if guard is None:
            raise _Infeasible("cannot place the hull guard at vertex %d" % i)
        y.append(guard)

    # the first 2n guards must all be corners of their own hull
    pt = frame.point
    ring = [g for pair in zip(x, y) for g in pair]
    points = [pt(g) for g in ring]
    hull = convex_hull(points)
    if hull.degenerate or any(label != "corner" for label in hull.labels):
        raise _Infeasible("an edge or hull guard fell inside the guard hull")
    homogeneous = dict(zip(points, ring))
    corners = [homogeneous[p] for p in hull.corners]
    hull_lines = [_join(p, q) for p, q in zip(corners, corners[1:] + corners[:1])]
    hull_planes = _halfplanes_of(hull_lines)

    # fence points: where the line from the next vertex's edge guard
    # through this vertex's hull guard crosses the clockwise edge
    fence = []
    for i in range(n):
        line = _join(x[(i + 1) % n], y[i])
        if _side(line, verts[i - 1]) * _side(line, verts[i]) >= 0:
            raise _Infeasible("fence line at vertex %d misses the clockwise edge" % i)
        fence.append(_meet(line, _join(verts[i - 1], verts[i])))

    # third guard per vertex: strictly inside the hull of the first 2n,
    # fenced by three lines so its dark rays leave through safe gaps
    taken = {_primitive(g) for g in ring + list(elbow.values())}
    z = []
    for i in range(n):
        fences = [(_join(y[i], exit_before[i]), x[i]), (_join(y[i - 1], fence[i]), x[i]),
                  (_join(x[i], exit_after[i]), y[i])]
        sides = [_side(line, p) for line, p in fences]
        if 0 in sides:
            raise _Infeasible("fence lines at vertex %d pass through their guards" % i)
        fenced = [line if s > 0 else (-line[0], -line[1], -line[2])
                  for (line, _), s in zip(fences, sides)]

        feasible = halfplane_intersection(hull_planes + _halfplanes_of(fenced))
        if feasible.status != "bounded" or len(feasible.vertices) < 3:
            raise _Infeasible("no room for the interior guard at vertex %d" % i)

        within = inside(hull_lines + fenced)
        guard = _snap_in_frame(_homogeneous(centroid(feasible.vertices), 1), *frames[i], den,
                               lambda q: _primitive(q) not in taken and within(q), bits)
        if guard is None:
            raise _Infeasible("cannot place the interior guard at vertex %d" % i)
        z.append(guard)
        taken.add(_primitive(guard))

    sc = ConstructionScaffold(P, eps, zz, (frame, before, after, exit_before, exit_after,
                                          safe, fence))
    sc.x, sc.y, sc.z = points[0::2], points[1::2], [pt(g) for g in z]
    sc.elbow = {a: pt(g) for a, g in elbow.items()}
    return sc


def place_4n_minus_2(P: ConvexPolygon):
    """4n-2 guards in P with no 2-dark point, exactly certified.

    Returns (GuardSet, ConstructionScaffold).  The dividing-point
    parameter starts at 1/4; each failed attempt (degenerate scaffold or
    a 2-dark point found by the verifier) first refines the dyadic
    snapping grid, then halves the parameter.  The returned placement
    always carries a clean certificate: the GuardSet holds the analysis
    that certified it, from which construct derives its prefix's.  When
    every attempt fails, the ConstructionError counts the attempts that
    had a 2-dark point and those that built no scaffold, with the last
    one's reason, and its witness is the last 2-dark witness, or None.
    """
    witness = None
    infeasible, reason = 0, None
    for attempt in range(_MAX_EPS_RETRIES):
        eps = Fraction(1, 4) / (1 << (attempt // 4))
        bits = _SNAP_BITS + 4 * (attempt % 4)
        try:
            sc = _build_scaffold(P, eps, bits)
        except _Infeasible as exc:
            infeasible, reason = infeasible + 1, exc
            continue
        guards = GuardSet(sc.guards())
        w = max_darkness(P, guards)
        if w.darkness <= 1:
            return guards, sc
        witness = w
    message = "no 4n-2 placement after %d attempts: %d had a 2-dark point" % (
        _MAX_EPS_RETRIES, _MAX_EPS_RETRIES - infeasible)
    if infeasible:
        message += ", %d built no scaffold (the last: %s)" % (infeasible, reason)
    raise ConstructionError(message, witness=witness)


# ---------------------------------------------------------------------------
# general position: no 3 collinear guards, no 3 concurrent guard lines


class _StreamPlacer:
    """Incremental placement with an exact concurrency rejection test.

    A candidate G is refused when, along some new line G-O, two stored
    guard lines would cross at the same point: that point would lie on
    three guard lines, which is exactly what the no-3-concurrent-dark-rays
    guarantee must rule out.  Keeping three candidates off one line is
    the caller's job.

    Points are homogeneous integers (X, Y, W), W > 0, all in one scale.
    ``lines`` holds ((a, b, c), i, j): the primitive cross product of
    points i and j, with a*X + b*Y + c*W = 0 on the line.  A stored line
    L meets the line through G and O at lam*G + mu*O, where
    lam : mu = (L.O) : -(L.G); that pair, reduced and signed so that the
    point's W is positive, keys the crossing along G-O.  A line parallel
    to G-O meets it at infinity (lam*W_G + mu*W_O == 0) and is skipped.
    """

    def __init__(self):
        self.points: List[Tuple[int, int, int]] = []
        self.lines: List[Tuple[Tuple[int, int, int], int, int]] = []

    def try_add(self, g) -> bool:
        gx, gy, gw = g
        # -(L.G) does not depend on O: hoist it out of the O loop
        mus = [-(a * gx + b * gy + c * gw) for (a, b, c), _, _ in self.lines]
        for o, (ox, oy, ow) in enumerate(self.points):
            seen = set()
            for ((a, b, c), i, j), mu in zip(self.lines, mus):
                if i == o or j == o:
                    continue
                lam = a * ox + b * oy + c * ow
                w = lam * gw + mu * ow
                if w == 0:
                    continue
                d = gcd(lam, mu) if w > 0 else -gcd(lam, mu)
                key = (lam // d, mu // d)
                if key in seen:
                    return False
                seen.add(key)
        new = len(self.points)
        for i, p in enumerate(self.points):
            self.lines.append((_join(p, g), i, new))
        self.points.append(g)
        return True


def _interior_anchor_and_margin(region: Region):
    """A strictly interior point and an exact L-inf safety radius: the
    least room, a*x + b*y - c over |a| + |b|, that the anchor leaves in
    the region's integer halfplanes (geometry._halfplanes) on a _Frame
    of the region and the anchor, divided back by the frame's scale."""
    if isinstance(region, ConvexPolygon):
        anchor = centroid(region.vertices)
    elif isinstance(region, Wedge):
        step = _forward_step(region.dir1) + _forward_step(region.dir2)
        shift = 1 << max(abs(step.x.numerator), abs(step.y.numerator)).bit_length()
        anchor = region.apex + step * Fraction(1, shift)
    else:
        raise TypeError("region must be ConvexPolygon or Wedge, got %r" % (region,))
    frame = _Frame(region, [anchor])
    (X, Y), = frame.ints
    margin = None
    for a, b, c in _halfplanes(region, frame.walls):
        room = a * X + b * Y - c
        if room <= 0:
            raise ValueError("region anchor is not strictly interior")
        room = Fraction(room, (abs(a) + abs(b)) * frame.scale)
        if margin is None or room < margin:
            margin = room
    return anchor, margin


def _floor_pow2(q: Fraction) -> Fraction:
    """Largest power of two <= q (q > 0); keeps denominators short."""
    if q >= 1:
        return Fraction(1 << (q.numerator // q.denominator).bit_length() - 1)
    inv = q.denominator // q.numerator  # 1/q >= inv, so 2**-ceil fits
    return Fraction(1, 1 << inv.bit_length())


def place_general_position(region: Region, g: int) -> GuardSet:
    """g guards, no 3 collinear, no 3 guard lines concurrent.

    Dark rays live on guard lines, so no point of the plane lies on
    three dark rays and the region has no 3-dark point: coverage depth
    is at least g - 2.  Deterministic: one stream runs the placer over
    the integer parabola (t, t^2), t = 1, 2, ..., until g points are
    accepted.  Collinearity and concurrency survive affine maps, so the
    accepted t's are then mapped once to anchor + (sx*t, sy*t^2) around
    an interior anchor, with the span that keeps them inside the region:
    the first of g+64, 2(g+64), ... that reaches the last accepted t.
    """
    if as_int(g, "g") < 1:
        raise ValueError("need at least one guard")
    anchor, margin = _interior_anchor_and_margin(region)
    placer = _StreamPlacer()
    ts = []
    t = 0
    while len(ts) < g:
        t += 1
        if placer.try_add((t, t * t, 1)):
            ts.append(t)
    span = g + 64
    while span < t:
        span *= 2
    sx = _floor_pow2(margin / (2 * span))
    sy = _floor_pow2(margin / (2 * span * span))
    return GuardSet([anchor + Point2(sx * t, sy * t * t) for t in ts])


# ---------------------------------------------------------------------------
# top-level dispatch


def construct(P: ConvexPolygon, k: int) -> GuardSet:
    """Guard set covering P to depth k with the tight guard count."""
    if not isinstance(P, ConvexPolygon):
        raise TypeError("construct covers a ConvexPolygon, got %r; place_wedge covers "
                        "a Wedge and fisk_cover a SimplePolygon" % (P,))
    pl = plan(len(P.vertices), k)
    if pl.regime == REGIME_VERTEX:
        guards = place_vertex_guards(P, k)
    elif pl.regime == REGIME_ONE_EXTRA:
        full, _ = place_4n_minus_2(P)
        # full holds its certificate, which settles the prefix too
        guards = _prefix(P, full, pl.g)
    else:
        guards = place_general_position(P, pl.g)
    w = max_darkness(P, guards)
    depth = len(guards) - w.darkness
    if depth < k:
        raise ConstructionError(
            "placement reached depth %d instead of %d" % (depth, k), witness=w
        )
    return guards


# ---------------------------------------------------------------------------
# wedges


def guards_for_wedge(k: int) -> int:
    """Tight guard count for covering a wedge to depth k."""
    if as_int(k, "k") < 1:
        raise ValueError("coverage depth must be at least 1")
    if k <= 2:
        return k
    if k <= 9:
        return k + 1
    return k + 2


def _wedge_map(W: Wedge):
    """Affine map taking the built-in fixture wedge onto W."""
    from .fixtures import wedge_region

    W0 = wedge_region()
    d1, d2 = W0.dir1, W0.dir2
    det = d1.cross(d2)
    e1, e2 = W.dir1, W.dir2
    # columns of N = [e1 e2] * inverse([d1 d2])
    n11 = (e1.x * d2.y - e2.x * d1.y) / det
    n12 = (e2.x * d1.x - e1.x * d2.x) / det
    n21 = (e1.y * d2.y - e2.y * d1.y) / det
    n22 = (e2.y * d1.x - e1.y * d2.x) / det
    apex0 = W0.apex

    def apply(p: Point2) -> Point2:
        rel = p - apex0
        return W.apex + Point2(n11 * rel.x + n12 * rel.y, n21 * rel.x + n22 * rel.y)

    return apply


def place_wedge(W: Wedge, k: int) -> GuardSet:
    """Guard set covering the wedge W to depth k with the tight count.

    Depths 1 and 2 have direct placements (the apex; the endpoints of a
    chord, whose dark rays exit instantly).  Depths 3 through 9 take a
    prefix of the 10-guard wedge fixture -- subsets of a no-2-dark
    placement stay no-2-dark -- carried onto W by the affine map that
    matches apexes and edge rays.  Beyond depth 9, general position
    placement caps darkness at 2 with k+2 guards.
    """
    g = guards_for_wedge(k)
    if k == 1:
        return GuardSet([W.apex])
    if k == 2:
        p1 = W.apex + _forward_step(W.dir1)
        p2 = W.apex + _forward_step(W.dir2)
        return GuardSet([p1, p2])
    if k <= 9:
        from .fixtures import wedge_fixture

        _, guards = wedge_fixture()
        carry = _wedge_map(W)
        return GuardSet([carry(p) for p in guards.guards[:g]])
    return place_general_position(W, g)
