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
before meeting another.  All intermediate points come from line
intersections, so coordinates stay rational; guard coordinates are
additionally snapped to short dyadic parameters in frames that travel
with the polygon (ratios along edges, coordinates in per-vertex
triangles), which keeps the verifier fast and the construction exactly
equivariant under orientation-preserving affine maps.  Every placement
is certified by the exact verifier before being returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Tuple, Union

from .darkness import GuardSet, max_darkness
from .geometry import (
    ConvexPolygon,
    Halfplane,
    Line,
    Point2,
    Wedge,
    _forward_step,
    centroid,
    convex_hull,
    halfplane_intersection,
    lerp,
    line_intersection,
    midpoint,
    strictly_between,
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

_MAX_EPS_RETRIES = 16


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
        if n < 3:
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
    if not 1 <= k <= n:
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
# dyadic snapping in affine-covariant frames


def _dyadic(q: Fraction, bits: int) -> Fraction:
    """Nearest multiple of 2**-bits (ties toward +infinity); exact."""
    scaled = q * (1 << bits)
    rounded = (scaled.numerator * 2 + scaled.denominator) // (scaled.denominator * 2)
    return Fraction(rounded, 1 << bits)


def _snap_param(t: Fraction, accept, bits: int = _SNAP_BITS) -> Optional[Fraction]:
    """Dyadic value near t passing accept(); falls back to t itself."""
    for step in range(_SNAP_STEPS):
        cand = _dyadic(t, bits + 4 * step)
        if accept(cand):
            return cand
    return t if accept(t) else None


def _snap_in_frame(target: Point2, origin: Point2, ax1: Point2, ax2: Point2, accept,
                   bits: int = _SNAP_BITS):
    """Snap target to dyadic coordinates in the frame origin + a*ax1 + b*ax2.

    The frame rides along under affine maps of the whole scene, so the
    snapped point is exactly equivariant even though its dyadic
    parameters are absolute.  Returns None if nothing nearby passes.
    """
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


# ---------------------------------------------------------------------------
# the 4n-2 construction


class ConstructionScaffold:
    """Every intermediate point of the 4n-2 construction, for inspection.

    Indexed by vertex: dividing points before/after each vertex, elbow
    guards (apexes only), the exit points bracketing each vertex, safe
    regions, the three per-vertex guards, and the auxiliary crossing
    point used to fence in the third guard.
    """

    __slots__ = (
        "polygon", "eps", "zz", "before", "after", "elbow",
        "exit_before", "exit_after", "safe_region", "x", "y", "z", "fence",
    )

    def __init__(self, polygon, eps, zz):
        n = len(polygon.vertices)
        self.polygon = polygon
        self.eps = eps
        self.zz = zz
        self.before: List[Optional[Point2]] = [None] * n
        self.after: List[Optional[Point2]] = [None] * n
        self.elbow: Dict[int, Point2] = {}
        self.exit_before: List[Optional[Point2]] = [None] * n
        self.exit_after: List[Optional[Point2]] = [None] * n
        self.safe_region: List[Optional[ConvexPolygon]] = [None] * n
        self.x: List[Optional[Point2]] = [None] * n
        self.y: List[Optional[Point2]] = [None] * n
        self.z: List[Optional[Point2]] = [None] * n
        self.fence: List[Optional[Point2]] = [None] * n

    def guards(self) -> List[Point2]:
        """Canonical guard order: per-vertex triples, then elbows."""
        out = []
        n = len(self.polygon.vertices)
        for i in range(n):
            out.extend((self.x[i], self.y[i], self.z[i]))
        for a in self.zz.path[1:-1]:
            out.append(self.elbow[a])
        return out

    def __repr__(self):
        return "ConstructionScaffold(n=%d, eps=%s)" % (len(self.polygon.vertices), self.eps)


class _Infeasible(Exception):
    """Internal: this eps produced a degenerate scaffold; retry smaller."""


def _edge_param(v: Point2, w: Point2, p: Point2) -> Fraction:
    """Parameter t with p = v + t*(w - v), for p on line vw."""
    d = w - v
    return (p - v).dot(d) / d.dot(d)


def _strict_inside(poly: ConvexPolygon, p: Point2) -> bool:
    return poly.where(p) == "interior"


def _build_scaffold(P: ConvexPolygon, eps: Fraction,
                    bits: int = _SNAP_BITS) -> ConstructionScaffold:
    vs = P.vertices
    n = len(vs)
    zz = zigzag(P)
    sc = ConstructionScaffold(P, eps, zz)

    # dividing points: eps of the way from each vertex along both edges
    for i in range(n):
        sc.before[i] = lerp(vs[i], vs[i - 1], eps)
        sc.after[i] = lerp(vs[i], vs[(i + 1) % n], eps)

    # elbow guards, one per triangle, nudged off the dividing chord
    # toward the apex (the safe side: it only pulls the rays through the
    # elbow closer to the apex) and snapped in the local triangle frame
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

    # exit points and safe regions
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

    # first two guards per vertex: one on the clockwise edge a quarter
    # of the way to the exit point, one near the middle of the chord
    # between the two quarter points
    base_end = [None] * n
    for i in range(n):
        region = sc.safe_region[i]
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
            # keep the second guard on the ccw side of the apex-to-elbow
            # line, so its dark rays exit past the elbow's wedges
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

    # the first 2n guards must all be corners of their own hull
    ring = [g for pair in zip(sc.x, sc.y) for g in pair]
    hull = convex_hull(ring)
    if hull.degenerate or any(label != "corner" for label in hull.labels):
        raise _Infeasible("an edge or hull guard fell inside the guard hull")
    hull_planes = [Halfplane.left_of(a, b)
                   for a, b in ConvexPolygon(hull.corners).edges()]

    # fence points: where the line from the next vertex's edge guard
    # through this vertex's hull guard crosses the clockwise edge
    for i in range(n):
        edge_cw = Line.through(vs[i - 1], vs[i])
        hit = line_intersection(Line.through(sc.x[(i + 1) % n], sc.y[i]), edge_cw)
        if not isinstance(hit, Point2) or not strictly_between(vs[i - 1], hit, vs[i]):
            raise _Infeasible("fence line at vertex %d misses the clockwise edge" % i)
        sc.fence[i] = hit

    # third guard per vertex: strictly inside the hull of the first 2n,
    # fenced by three lines so its dark rays leave through safe gaps
    for i in range(n):
        constraints = list(hull_planes)
        sides = []

        def oriented(line, wanted):
            if wanted < 0:
                line = Line(-line.a, -line.b, -line.c)
            constraints.append(Halfplane(line))
            sides.append(line)

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
        taken.update(g for g in ring)
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


def place_4n_minus_2(P: ConvexPolygon):
    """4n-2 guards in P with no 2-dark point, exactly certified.

    Returns (GuardSet, ConstructionScaffold).  The dividing-point
    parameter starts at 1/4; each failed attempt (degenerate scaffold or
    a 2-dark point found by the verifier) first refines the dyadic
    snapping grid, then halves the parameter.  The returned placement
    always carries a clean certificate.
    """
    witness = None
    for attempt in range(_MAX_EPS_RETRIES):
        eps = Fraction(1, 4) / (1 << (attempt // 4))
        bits = _SNAP_BITS + 4 * (attempt % 4)
        try:
            sc = _build_scaffold(P, eps, bits)
        except _Infeasible:
            continue
        guards = sc.guards()
        w = max_darkness(P, guards)
        if w.darkness <= 1:
            return GuardSet(guards), sc
        witness = w
    raise ConstructionError(
        "could not avoid a 2-dark point after %d attempts" % _MAX_EPS_RETRIES,
        witness=witness,
    )


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
        for i, (px, py, pw) in enumerate(self.points):
            a, b, c = py * gw - pw * gy, pw * gx - px * gw, px * gy - py * gx
            d = gcd(a, b, c)
            self.lines.append(((a // d, b // d, c // d), i, new))
        self.points.append(g)
        return True


def _interior_anchor_and_margin(region: Region):
    """A strictly interior point and an exact L-inf safety radius."""
    if isinstance(region, ConvexPolygon):
        anchor = centroid(region.vertices)
        planes = region.halfplanes()
    elif isinstance(region, Wedge):
        step = _forward_step(region.dir1) + _forward_step(region.dir2)
        shift = 1 << max(abs(step.x.numerator), abs(step.y.numerator)).bit_length()
        anchor = region.apex + step * Fraction(1, shift)
        planes = region.halfplanes()
    else:
        raise TypeError("region must be ConvexPolygon or Wedge, got %r" % (region,))
    margin = None
    for h in planes:
        ln = h.line
        room = ln.eval(anchor) / (abs(ln.a) + abs(ln.b))
        if room <= 0:
            raise ValueError("region anchor is not strictly interior")
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
    if type(g) is not int:
        raise TypeError("g must be an int, got %r" % (g,))
    if g < 1:
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
        guards = GuardSet(full.guards[: pl.g])
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
    if k < 1:
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
