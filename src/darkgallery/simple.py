"""Guard placements for simple polygons: combs and coloring covers.

Two constructions live here, one per direction of the depth-k bound
for polygons with walls.

The comb family is the lower bound: s tall, thin spikes over a shallow
corridor.  The deep part of each spike is visible only from a narrow
strip of corridor under its own mouth, so k-covering all s spikes needs
k*s guards; and k*s suffice, by parking k guards on a gently convex arc
under each spike.  Every pairwise guard line is kept strictly below
mouth level all the way across the corridor, which is an exact, linear
certificate that no dark ray reaches into a spike, and the exact
engine's depth certificate gates the corridor itself: no point of it
may see fewer than k guards.

The coloring cover is the upper bound: triangulate, 3-color the
vertices (proper on every triangle, so the smallest class has at most
floor(n/3) members), and put k+2 guards in a tight convex arc tucked
into the visibility kernel at each chosen vertex -- the edge cone at a
convex vertex, the "anticone" between the edge extensions at a reflex
one.  Every triangle of the polygon has exactly one chosen corner, its
cluster sees the whole triangle, and a global general-position
discipline (no three guards collinear, no three guard lines meeting in
a point, streamed across all clusters) caps the loss at any point at
two blocked guards: depth k from k+2 per cluster.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from ._filter import _RATIO
from .construct import ConstructionError, _StreamPlacer
from .darkness import GuardSet, min_depth
from .geometry import (
    ConvexPolygon,
    Point2,
    SimplePolygon,
    Wedge,
    _Frame,
    _Frozen,
    _orient,
    as_int,
    convex_hull,
)
from .sampling import _corners, _depths

MOUTH_LEVEL = Fraction(2)  # corridor ceiling: spike mouths sit on this line
TIP_LEVEL = Fraction(10)   # spike tips: 4x the corridor height above the mouths


class Comb(_Frozen):
    """A comb polygon: spike_count spikes over a convex corridor.

    spike_apertures holds one (x_left, x_right) interval per spike: the
    open mouth at height MOUTH_LEVEL through which the spike is seen.
    The polygon always has exactly 3 * spike_count vertices: combs with
    more than three spikes flatten the extra count into straight
    vertices along the corridor floor, the two-spike comb sharpens the
    floor to a single point.
    """

    __slots__ = ("spike_count", "polygon", "spike_apertures")

    def __init__(self, spike_count: int, polygon: SimplePolygon, spike_apertures):
        object.__setattr__(self, "spike_count", spike_count)
        object.__setattr__(self, "polygon", polygon)
        object.__setattr__(self, "spike_apertures", tuple(spike_apertures))

    def __repr__(self):
        return "Comb(%d spikes, %d vertices)" % (
            self.spike_count,
            len(self.polygon.vertices),
        )

    def spike_tip(self, i: int) -> Point2:
        lo, hi = self.spike_apertures[i]
        return Point2(lo + (hi - lo) / 2, TIP_LEVEL)

    def corridor(self) -> ConvexPolygon:
        """The convex part of the comb below the spike mouths."""
        below = [v for v in self.polygon.vertices if v.y <= MOUTH_LEVEL]
        return ConvexPolygon(convex_hull(below).corners)


def make_comb(s: int) -> Comb:
    """A comb with s unit-pitch spikes and exactly 3s vertices.

    Spike i opens over x in (2i, 2i+2) at height MOUTH_LEVEL and rises
    to a tip at height TIP_LEVEL, so each spike is four times as tall
    as the corridor below it: deep spike points are visible only from a
    sliver of corridor barely wider than the spike's own mouth.
    """
    if as_int(s, "s") < 2:
        raise ValueError("a comb needs at least two spikes")
    verts: List[Point2] = []
    if s == 2:
        verts.append(Point2(2, -2))  # pointed floor keeps the count at 3s
    else:
        verts.append(Point2(0, 0))
        for j in range(1, s - 2):
            verts.append(Point2(2 * j, 0))  # straight floor vertices: padding
        verts.append(Point2(2 * s, 0))
    verts.append(Point2(2 * s, MOUTH_LEVEL))
    for i in range(s - 1, 0, -1):
        verts.append(Point2(2 * i + 1, TIP_LEVEL))
        verts.append(Point2(2 * i, MOUTH_LEVEL))
    verts.append(Point2(1, TIP_LEVEL))
    verts.append(Point2(0, MOUTH_LEVEL))
    polygon = SimplePolygon(verts)
    apertures = [(Fraction(2 * i), Fraction(2 * i + 2)) for i in range(s)]
    return Comb(s, polygon, apertures)


def comb_cover(comb: Comb, k: int) -> GuardSet:
    """k guards per spike, arranged to k-cover the whole comb.

    Each spike gets k guards on a slightly convex arc in the corridor
    under its mouth, the arcs lifted by a little more at each spike.
    Two exact checks run before anything is returned: every pairwise
    guard line stays strictly below mouth level across the corridor (so
    no dark ray can enter a spike), and the exact engine's certificate
    finds depth at least k everywhere in the convex corridor.
    """
    if as_int(k, "k") < 2:
        raise ValueError("per-spike arcs need at least two guards")
    s = comb.spike_count
    corridor = comb.corridor()
    bend = Fraction(1, 64 * s)          # arc curvature
    lift = Fraction(1, 16 * s * s)      # per-spike height offset
    tilt = lift / 64                    # quadratic tie-break between arcs
    guards = []
    for i in range(s):
        base = 1 + i * lift + i * i * tilt
        left = Fraction(2 * i) + Fraction(5, 8)
        for m in range(k):
            u = Fraction(2 * m, k - 1) - 1
            x = left + Fraction(3, 4) * Fraction(m, k - 1)
            guards.append(Point2(x, base + bend * u * u))
    for g in guards:
        if corridor.where(g) != "interior":
            raise ConstructionError("arc guard %r left the corridor" % (g,))
    if not _lines_below_mouths(guards, Fraction(2 * s)):
        raise ConstructionError("a guard line reached mouth level")
    cert = min_depth(corridor, guards)
    if cert.min_depth < k:
        raise ConstructionError("corridor depth %d < k" % cert.min_depth, witness=cert.witness)
    return GuardSet(guards)


def _lines_below_mouths(guards: Sequence[Point2], width: Fraction) -> bool:
    """Every pairwise guard line stays under MOUTH_LEVEL on [0, width].

    The guards all have distinct x (arcs use disjoint x-ranges), so no
    line is vertical, and a line below the ceiling at both corridor
    ends stays below it everywhere between: dark rays can never climb
    into a spike.  In one frame of the guards and the ceiling's ends,
    with each pair ordered left to right, that is two _orient signs.
    """
    frame = _Frame(None, [*guards, Point2(0, MOUTH_LEVEL), Point2(width, MOUTH_LEVEL)])
    *pts, left, right = frame.ints
    pts.sort()
    for i, g in enumerate(pts):
        for h in pts[i + 1 :]:
            if _orient(g, h, left) <= 0 or _orient(g, h, right) <= 0:
                return False
    return True


# ---------------------------------------------------------------------------
# triangulation and 3-coloring


def triangulate(P: SimplePolygon) -> List[Tuple[int, int]]:
    """Diagonals of an ear-clipping triangulation, as vertex index pairs.

    Straight vertices (three in a row on one line) are never ear
    apexes, but they block any ear whose chord would run through them,
    so they end up subdividing the triangle fan instead of breaking it.
    Every turn is an integer sign on P.ints: an ear turns left, and no
    other active vertex lies in its closed triangle.
    """
    if not isinstance(P, SimplePolygon):
        raise TypeError("triangulate wants a SimplePolygon, got %r" % (P,))
    vs = P.ints
    active = list(range(len(vs)))
    diagonals: List[Tuple[int, int]] = []
    while len(active) > 3:
        for pos in range(len(active)):
            ia = active[pos - 1]
            ib = active[pos]
            ic = active[(pos + 1) % len(active)]
            a, b, c = vs[ia], vs[ib], vs[ic]
            if _orient(a, b, c) <= 0:
                continue
            if any(
                idx not in (ia, ib, ic)
                and _orient(a, b, vs[idx]) >= 0
                and _orient(b, c, vs[idx]) >= 0
                and _orient(c, a, vs[idx]) >= 0
                for idx in active
            ):
                continue
            diagonals.append((min(ia, ic), max(ia, ic)))
            active.pop(pos)
            break
        else:
            raise ValueError("ran out of ears; the polygon is not simple")
    return diagonals


def _faces(n: int, diagonals: Sequence[Tuple[int, int]]) -> List[Tuple[int, int, int]]:
    """Triangles of the triangulation, rebuilt from its diagonal set."""
    chords = {(min(i, j), max(i, j)) for i, j in diagonals}

    def connected(i: int, j: int) -> bool:
        if (j - i) % n in (1, n - 1):
            return True
        return (min(i, j), max(i, j)) in chords

    out: List[Tuple[int, int, int]] = []

    def split(cycle: List[int]):
        if len(cycle) == 3:
            out.append(tuple(cycle))
            return
        a, b = cycle[0], cycle[1]
        for pos in range(2, len(cycle)):
            m = cycle[pos]
            if connected(a, m) and connected(b, m):
                out.append((a, b, m))
                if pos > 2:
                    split(cycle[1 : pos + 1])
                if pos < len(cycle) - 1:
                    split(cycle[pos:] + [a])
                return
        raise ValueError("diagonal set does not triangulate the polygon")

    split(list(range(n)))
    if len(out) != n - 2:
        raise ValueError("diagonal set does not triangulate the polygon")
    return out


def three_color(P: SimplePolygon, diagonals: Sequence[Tuple[int, int]]) -> Dict[int, int]:
    """Proper 3-coloring of the triangulation's vertices, as {index: 1|2|3}.

    The dual of a polygon triangulation is a tree, so colors propagate
    without ever backtracking: each triangle shares an edge (two
    colored vertices) with the one it was reached from, forcing the
    third.
    """
    n = len(P.vertices)
    faces = _faces(n, diagonals)
    by_edge: Dict[Tuple[int, int], List[int]] = {}
    for t, (a, b, c) in enumerate(faces):
        for u, v in ((a, b), (b, c), (a, c)):
            by_edge.setdefault((min(u, v), max(u, v)), []).append(t)

    colors: Dict[int, int] = {}
    first = sorted(faces[0])
    for color, idx in enumerate(first, start=1):
        colors[idx] = color
    todo = [0]
    done = {0}
    while todo:
        t = todo.pop()
        a, b, c = faces[t]
        missing = [v for v in (a, b, c) if v not in colors]
        if missing:
            if len(missing) > 1:
                raise ValueError("triangulation dual is not connected")
            v = missing[0]
            others = [colors[u] for u in (a, b, c) if u != v]
            colors[v] = 6 - others[0] - others[1]
        for u, v in ((a, b), (b, c), (a, c)):
            for nxt in by_edge[(min(u, v), max(u, v))]:
                if nxt not in done:
                    done.add(nxt)
                    todo.append(nxt)
    if len(colors) != n:
        raise ValueError("triangulation left vertices uncolored")
    for a, b, c in faces:
        if {colors[a], colors[b], colors[c]} != {1, 2, 3}:
            raise ValueError("coloring failed to be proper on a triangle")
    return colors


class FiskPlan(_Frozen):
    """Everything the coloring cover decides before placing guards.

    triangulation: the diagonals; coloring: vertex index -> color;
    chosen_class: the indices of the smallest color class, ascending;
    cones: for each chosen vertex, the wedge its guards must sit in
    (edge cone at a convex vertex, anticone between the edge extensions
    at a reflex one, a slightly tilted half-wedge at a straight one).
    """

    __slots__ = ("triangulation", "coloring", "chosen_class", "cones")

    def __init__(self, triangulation, coloring, chosen_class, cones):
        object.__setattr__(self, "triangulation", tuple(triangulation))
        object.__setattr__(self, "coloring", dict(coloring))
        object.__setattr__(self, "chosen_class", tuple(chosen_class))
        object.__setattr__(self, "cones", dict(cones))

    def __repr__(self):
        return "FiskPlan(%d chosen of %d vertices)" % (
            len(self.chosen_class),
            len(self.coloring),
        )


def _vertex_cone(P: SimplePolygon, i: int) -> Wedge:
    vs = P.vertices
    n = len(vs)
    v = vs[i]
    prev = vs[i - 1]
    nxt = vs[(i + 1) % n]
    o = _orient(P.ints[i - 1], P.ints[i], P.ints[(i + 1) % n])
    if o > 0:
        return Wedge(v, nxt - v, prev - v)
    if o < 0:
        # the anticone: both incident edges extended through the vertex
        return Wedge(v, v - prev, v - nxt)
    # straight vertex: the kernel is the full inner halfplane; tilt both
    # rays slightly toward the interior to get a proper wedge inside it
    along = nxt - prev
    inward = Point2(-along.y, along.x)
    return Wedge(v, (nxt - v) * 4 + inward, (prev - v) * 4 + inward)


def fisk_plan(P: SimplePolygon) -> FiskPlan:
    """Triangulate, 3-color, choose the smallest class, aim the cones."""
    diagonals = triangulate(P)
    coloring = three_color(P, diagonals)
    n = len(P.vertices)
    sizes = {color: 0 for color in (1, 2, 3)}
    for color in coloring.values():
        sizes[color] += 1
    chosen_color = min(sizes, key=lambda c: (sizes[c], c))
    chosen = sorted(i for i, c in coloring.items() if c == chosen_color)
    assert len(chosen) <= n // 3, "a smallest of three classes exceeds n/3"
    cones = {i: _vertex_cone(P, i) for i in chosen}
    return FiskPlan(diagonals, coloring, chosen, cones)


def _clearance2(P: SimplePolygon, i: int) -> Fraction:
    """Squared distance from vertex i to the nearest non-incident edge.

    Each distance is a ratio of integers on P.ints: to the nearer end
    where the foot of the perpendicular leaves the edge, else cross^2 /
    |edge|^2; the least one, divided by P.scale^2, is the Fraction."""
    vs = P.ints
    n = len(vs)
    px, py = vs[i]

    def dist2(j):
        (ax, ay), (bx, by) = vs[j], vs[(j + 1) % n]
        ex, ey = bx - ax, by - ay
        rx, ry = px - ax, py - ay
        t = rx * ex + ry * ey
        den = ex * ex + ey * ey
        if t <= 0:
            return rx * rx + ry * ry, 1
        if t >= den:
            return (px - bx) ** 2 + (py - by) ** 2, 1
        c = ex * ry - ey * rx
        return c * c, den

    num, den = min((dist2(j) for j in range(n) if j != i and (j + 1) % n != i), key=_RATIO)
    assert num > 0
    return Fraction(num, den * P.scale ** 2)


def _pow2_under(limit_sq: Fraction, weight_sq: Fraction) -> Fraction:
    """Largest power of two t <= 1 with t^2 * weight_sq <= limit_sq."""
    t = Fraction(1)
    while t * t * weight_sq > limit_sq:
        t /= 2
    return t


def _place_cluster(
    P: SimplePolygon,
    cone: Wedge,
    clearance2: Fraction,
    count: int,
    scale: Fraction,
    placer: _StreamPlacer,
) -> Optional[List[Point2]]:
    """count guards on a tiny parabolic arc inside cone, near its apex.

    Candidates march along m -> apex + t0*axis + m*sx*d1 + m^2*sy*d2,
    as integers in one frame of P and those terms, which makes any three
    of them non-collinear.  Each goes to the placer that all clusters
    share, as homogeneous integers in P's scale; it refuses a candidate
    whose guard lines would stack a triple crossing anywhere.  Returns
    None when the budget runs out (caller shrinks the arc and retries).

    No candidate is tested against the cone, P or the clearance disc of
    radius r: its offset from the apex is a*d1 + b*d2 with a = t0 + m*sx
    > 0 and b = t0 + m^2*sy > 0, and the _pow2_under choices bound
    t0*|axis|, budget*sx*|d1| and budget^2*sy*|d2| by r/2, r/4 and r/4.
    So the offsets fill a parallelogram inside the cone, whose corners
    are checked once to lie in the disc; at scale < 1 the disc meets no
    edge but the two at the apex, and the cone lies in P's angle there.
    """
    v = cone.apex
    r2 = clearance2 * scale * scale
    d1, d2 = cone.dir1, cone.dir2
    axis = d1 + d2  # strictly interior to the wedge
    t0 = _pow2_under(r2 / 4, axis.dot(axis))
    budget = 16 * count + 16
    sx = _pow2_under(r2 / 16, d1.dot(d1) * budget * budget)
    sy = _pow2_under(r2 / 16, d2.dot(d2) * budget ** 4)
    frame = _Frame(P, [v, v + axis * t0, d1 * sx, d2 * sy])
    (ax, ay), (bx, by), (ux, uy), (wx, wy) = frame.ints
    rn, rd = (r2 * frame.scale ** 2).as_integer_ratio()
    assert scale < 1 and all(
        ((bx + i * ux + j * wx - ax) ** 2 + (by + i * uy + j * wy - ay) ** 2) * rd <= rn
        for i in (1, budget) for j in (1, budget * budget))
    f = frame.scale // P.scale  # the frame's integers are P's times f
    got: List[Point2] = []
    for m in range(1, budget + 1):
        x = bx + m * ux + m * m * wx
        y = by + m * uy + m * m * wy
        g = gcd(x, y, f)
        if placer.try_add((x // g, y // g, f // g)):
            got.append(frame.point((x, y, 1)))
            if len(got) == count:
                return got
    return None


def fisk_cover(P: SimplePolygon, k: int) -> GuardSet:
    """(k+2) guards per chosen vertex, k-covering the simple polygon.

    Every triangle of the triangulation has exactly one corner in the
    chosen class; its cluster of k+2 guards sits in that corner's
    visibility kernel, so the whole triangle sees the whole cluster,
    and the global no-triple-crossing discipline means no point loses
    more than two of them to blocking.  The arcs start at 1/4 of the
    vertex clearance; the construction halves that on its own when a
    cluster cannot be placed or a vertex fails the depth spot-check,
    which runs the sampler's batch of every vertex and guard
    (``_corners``), as ``sample_depth`` does.
    """
    if as_int(k, "k") < 1:
        raise ValueError("coverage depth must be at least 1")
    if not isinstance(P, SimplePolygon):
        raise TypeError("fisk_cover wants a SimplePolygon, got %r" % (P,))
    scale = Fraction(1, 4)
    plan = fisk_plan(P)
    room = {i: _clearance2(P, i) for i in plan.chosen_class}
    for _ in range(8):
        placer = _StreamPlacer()
        guards: List[Point2] = []
        complete = True
        for idx in plan.chosen_class:
            got = _place_cluster(P, plan.cones[idx], room[idx], k + 2, scale, placer)
            if got is None:
                complete = False
                break
            guards.extend(got)
        if complete:
            gset = GuardSet(guards)
            frame = _Frame(P, gset.guards)
            if min(_depths(frame, _corners(frame))) >= k:
                return gset
        scale /= 2
    raise ConstructionError(
        "could not fit the guard arcs inside their cones; the polygon has "
        "a vertex whose neighborhood is too pinched for this arc scale"
    )
