"""Exact predicates and region primitives."""

from __future__ import annotations

import copy
import itertools
import pickle
import random
import sys
from fractions import Fraction
from math import inf, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkgallery._filter import _RATIO, _XY, _nearest, _sorted_exact
from darkgallery.geometry import (
    COINCIDENT,
    PARALLEL,
    ConvexPolygon,
    Halfplane,
    Line,
    Point2,
    SimplePolygon,
    Wedge,
    _Frozen,
    convex_hull,
    halfplane_intersection,
    line_intersection,
    orientation,
)
from darkgallery.construct import place_4n_minus_2
from darkgallery.darkness import GuardSet, max_darkness
from darkgallery.documents import CertificateDocument, JDarkResult, PlacementDocument
from darkgallery.fixtures import triangle_region, wedge_region
from darkgallery.sampling import sample_depth
from darkgallery.simple import fisk_plan, make_comb

import oracles
from conftest import random_convex_polygon, random_star_polygon
from oracles import (
    clip_line_oracle,
    convex_hull_oracle,
    convex_polygon_error_oracle,
    convex_where_oracle,
    halfplane_intersection_oracle,
    simple_polygon_error_oracle,
)

coords = st.integers(min_value=-50, max_value=50)
points = st.builds(Point2, coords, coords)


HALF = Fraction(1, 2)
UNIT_SQUARE = ConvexPolygon([Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1)])


def test_orientation_signs():
    assert orientation(Point2(0, 0), Point2(1, 0), Point2(0, 1)) == 1
    assert orientation(Point2(0, 0), Point2(1, 1), Point2(2, 2)) == 0
    assert orientation(Point2(0, 0), Point2(0, 1), Point2(1, 0)) == -1


@settings(max_examples=200, deadline=None)
@given(points, points, points)
def test_orientation_antisymmetric_in_last_two(a, b, c):
    assert orientation(a, b, c) == -orientation(a, c, b)


def test_orientation_exact_on_tiny_rationals():
    # a float cross product would round these to zero
    eps = Fraction(1, 10**40)
    assert orientation(Point2(0, 0), Point2(1, 0), Point2(2, eps)) == 1
    assert orientation(Point2(0, 0), Point2(1, 0), Point2(2, -eps)) == -1


def test_line_intersection_cases():
    xaxis = Line.through(Point2(0, 0), Point2(1, 0))
    yaxis = Line.through(Point2(0, 0), Point2(0, 1))
    assert line_intersection(xaxis, yaxis) == Point2(0, 0)
    shifted = Line.through(Point2(0, 1), Point2(1, 1))
    assert line_intersection(xaxis, shifted) is PARALLEL
    again = Line.through(Point2(2, 0), Point2(5, 0))
    assert line_intersection(xaxis, again) is COINCIDENT


def test_line_through_equal_points_rejected():
    with pytest.raises(ValueError):
        Line.through(Point2(1, 1), Point2(1, 1))


def test_contains_closed_vs_open():
    assert UNIT_SQUARE.contains(Point2(Fraction(1, 2), Fraction(1, 2)), closed=True)
    assert not UNIT_SQUARE.contains(Point2(0, 0), closed=False)
    assert UNIT_SQUARE.contains(Point2(0, 0), closed=True)
    assert not UNIT_SQUARE.contains(Point2(2, 0), closed=True)


def test_wedge_contains_point_below_apex():
    W = wedge_region()
    assert W.contains(Point2(0, 0), closed=True)
    assert W.apex == Point2(0, 200)
    assert not W.contains(Point2(0, 300), closed=True)  # above the apex


def test_clip_line_in_unit_square():
    anchor, d = Point2(Fraction(1, 2), Fraction(1, 2)), Point2(1, 0)
    lo, hi = UNIT_SQUARE.clip_line(anchor, d)
    assert (lo, hi) == (Fraction(-1, 2), Fraction(1, 2))
    assert UNIT_SQUARE.where(anchor + d * lo) == UNIT_SQUARE.where(anchor + d * hi) == "boundary"
    assert UNIT_SQUARE.where(anchor + d * ((lo + hi) / 2)) == "interior"
    assert UNIT_SQUARE.clip_line(Point2(2, 2), Point2(1, 0)) is None


def test_clip_line_hits_triangle_base_exactly():
    T = triangle_region()
    lo, hi = T.clip_line(Point2(0, 0), Point2(0, -1))
    assert (lo, hi) == (-200, 100)  # apex at (0, 200), base edge on y = -100
    assert T.where(Point2(0, -100)) == T.where(Point2(0, 200)) == "boundary"


def test_clip_line_endpoints_lie_on_boundary():
    rng = random.Random(101)
    misses = hits = 0
    for _ in range(40):
        P = random_convex_polygon(rng, rng.randint(3, 7))
        anchor = Point2(rng.randint(-600, 600), rng.randint(-600, 600))
        d = Point2(rng.randint(-9, 9), rng.randint(-9, 9))
        if d.is_zero():
            continue
        res = P.clip_line(anchor, d)
        if res is None:
            # a line misses a convex polygon iff every vertex lies strictly
            # on one side of it
            sides = {orientation(anchor, anchor + d, v) for v in P.vertices}
            assert sides in ({1}, {-1})
            misses += 1
            continue
        lo, hi = res
        assert P.where(anchor + d * hi) == "boundary"
        assert P.where(anchor + d * lo) == "boundary"
        assert P.contains(anchor + d * (lo + (hi - lo) / 2))
        hits += 1
    assert misses > 0 and hits > 0


def test_halfplane_intersection_triangle():
    res = halfplane_intersection([
        Halfplane.left_of(Point2(0, 0), Point2(1, 0)),
        Halfplane.left_of(Point2(1, 0), Point2(0, 1)),
        Halfplane.left_of(Point2(0, 1), Point2(0, 0)),
    ])
    assert res.status == "bounded"
    assert set(res.vertices) == {Point2(0, 0), Point2(1, 0), Point2(0, 1)}


def test_halfplane_intersection_empty_and_unbounded():
    x_ge_0 = Halfplane.left_of(Point2(0, 0), Point2(0, -1))
    x_le_minus_1 = Halfplane.left_of(Point2(-1, 0), Point2(-1, 1))
    assert halfplane_intersection([x_ge_0, x_le_minus_1]).status == "empty"
    assert halfplane_intersection([x_ge_0]).status == "unbounded"


def test_halfplane_intersection_vertices_satisfy_constraints():
    rng = random.Random(77)
    for _ in range(25):
        P = random_convex_polygon(rng, rng.randint(3, 6))
        hps = P.halfplanes()
        res = halfplane_intersection(hps)
        assert res.status == "bounded"
        for v in res.vertices:
            assert all(hp.contains(v) for hp in hps)
        assert set(res.vertices) == set(P.vertices)


def _assert_matches_oracle(hps):
    res = halfplane_intersection(hps)
    ref = halfplane_intersection_oracle(hps)
    assert res.status == ref.status, hps
    if len(ref.vertices) >= 3:
        assert res.vertices == ref.vertices, hps
    else:
        assert sorted(res.vertices, key=lambda p: (p.x, p.y)) == sorted(
            ref.vertices, key=lambda p: (p.x, p.y)), hps
    return res


def test_halfplane_intersection_matches_the_oracle_on_scaffold_constraints(monkeypatch):
    construct_module = sys.modules["darkgallery.construct"]
    captured = []

    def spy(halfplanes):
        captured.append(list(halfplanes))
        return halfplane_intersection(halfplanes)

    monkeypatch.setattr(construct_module, "halfplane_intersection", spy)
    rng = random.Random(6)
    for n in (6, 8, 10):
        before = len(captured)
        place_4n_minus_2(random_convex_polygon(rng, n))
        assert len(captured) - before >= n
    for hps in captured:
        res = _assert_matches_oracle(hps)
        # the three fences come first; the result is the same reversed
        # and with the hull's lines first
        for order in (hps[::-1], hps[3:] + hps[:3]):
            got = halfplane_intersection(order)
            assert (got.status, got.vertices) == (res.status, res.vertices)


@pytest.mark.parametrize("factor", [2 ** 200, Fraction(1, 3 ** 40)], ids=["2^200", "3^-40"])
def test_halfplane_intersection_matches_the_oracle_at_large_coefficients(factor):
    # each coefficient is a small rational, times factor or not, so the
    # corners' W's are products of big and small coefficients and their
    # lcm is far past the float range; the status and the corners match
    # the oracle, with every shape of the degenerate sets turning up
    rng = random.Random(29)

    def coefficient():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3)) * rng.choice([1, factor])

    shapes, big = set(), 0
    for _ in range(400):
        hps = []
        for _ in range(rng.randint(1, 6)):
            a, b = coefficient(), coefficient()
            if a == 0 and b == 0:
                a = factor
            hps.append(Halfplane(Line(a, b, coefficient())))
        res = _assert_matches_oracle(hps)
        shapes.add((res.status, min(len(res.vertices), 3)))
        dens = [c.denominator for v in res.vertices for c in (v.x, v.y)]
        big += lcm(1, *dens) > 2 ** 100
    assert {("empty", 0), ("bounded", 3), ("unbounded", 0), ("unbounded", 1),
            ("unbounded", 2), ("unbounded", 3)} <= shapes
    assert big > 20


# shape: (status, corner count, a*x + b*y >= c for each triple); none has
# 3 corners or more
_DEGENERATE_SETS = {
    "point": ("bounded", 1, [(1, 0, 1), (-1, 0, -1), (0, 1, 2), (-1, -1, -3)]),
    "point-by-three-lines": ("bounded", 1, [(1, 0, 0), (0, 1, 0), (-1, -1, 0)]),
    "segment": ("bounded", 2, [(0, 1, 1), (0, -1, -1), (1, 0, 0), (-1, 0, -2)]),
    "diagonal-segment": ("bounded", 2, [(1, -1, 0), (-1, 1, 0), (1, 0, 0), (-2, 0, -3)]),
    "ray": ("unbounded", 1, [(0, 1, Fraction(1, 2)), (0, -1, Fraction(-1, 2)), (1, 0, 1)]),
    "line": ("unbounded", 0, [(1, 2, 3), (-1, -2, -3)]),
    "coincident-duplicates": ("unbounded", 0, [(1, 2, 3), (2, 4, 6), (-3, -6, -9), (1, 2, 3)]),
    "strip": ("unbounded", 0, [(1, 0, 0), (-1, 0, -5), (2, 0, -1)]),
    "halfplane-from-duplicates": ("unbounded", 0, [(0, 1, 1), (0, 3, 3), (0, 1, 0)]),
    "empty-parallel": ("empty", 0, [(1, 0, 1), (-1, 0, 0)]),
    "empty-triangle": ("empty", 0, [(1, 0, 1), (0, 1, 1), (-1, -1, -1)]),
    "wedge": ("unbounded", 1, [(1, 0, 0), (0, 1, 0), (1, 1, 0)]),
    "two-corner": ("unbounded", 2, [(0, 1, 0), (1, 1, 0), (-1, 1, -4)]),
}


def _degenerate_set(name):
    return [Halfplane(Line(*t)) for t in _DEGENERATE_SETS[name][2]]


def test_halfplane_intersection_matches_the_oracle_on_degenerate_random_sets():
    rng = random.Random(2024)

    def small():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    shapes = set()
    for _ in range(1500):
        hps = []
        for _ in range(rng.randint(1, 6)):
            if hps and rng.random() < 0.3:
                # parallel, coincident, opposite or duplicate of an earlier line
                ln = rng.choice(hps).line
                m = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 2))
                c = ln.c * m + rng.choice([0, 0, -1, 1])
                hps.append(Halfplane(Line(ln.a * m, ln.b * m, c)))
                continue
            a, b = small(), small()
            if a == 0 and b == 0:
                a = Fraction(1)
            hps.append(Halfplane(Line(a, b, Fraction(rng.randint(-4, 4), rng.randint(1, 2)))))
        res = _assert_matches_oracle(hps)
        shapes.add((res.status, min(len(res.vertices), 3)))
    # every status turns up, with 0, 1, 2 and 3+ corners where possible
    assert shapes == {("empty", 0), ("bounded", 1), ("bounded", 2), ("bounded", 3),
                      ("unbounded", 0), ("unbounded", 1), ("unbounded", 2),
                      ("unbounded", 3)}


@pytest.mark.parametrize("name", sorted(_DEGENERATE_SETS))
def test_halfplane_intersection_degenerate_shapes_in_any_input_order(name):
    status, count, _ = _DEGENERATE_SETS[name]
    hps = _degenerate_set(name)
    expected = _assert_matches_oracle(hps).vertices
    # fewer than 3 corners: lexicographic, in every input order below
    assert len(expected) == count
    assert expected == sorted(expected, key=lambda p: (p.x, p.y))
    for perm in itertools.permutations(hps):
        res = halfplane_intersection(perm)
        assert (res.status, res.vertices) == (status, expected)


def test_convex_hull_classification():
    square = [Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1)]
    res = convex_hull(square)
    assert res.labels == ["corner"] * 4

    res = convex_hull(square + [Point2(Fraction(1, 2), Fraction(1, 2))])
    assert res.labels[-1] == "interior"

    res = convex_hull(square + [Point2(Fraction(1, 2), 0)])
    assert res.labels[-1] == "edge"
    assert len(res.corners) == 4


def test_convex_hull_degenerate_segment():
    res = convex_hull([Point2(0, 0), Point2(1, 1), Point2(2, 2)])
    assert res.degenerate
    assert res.corners == [Point2(0, 0), Point2(2, 2)]


@settings(max_examples=60, deadline=None)
@given(st.lists(points, min_size=1, max_size=8), st.randoms(use_true_random=False))
def test_convex_hull_stable_under_permutation(pts, rnd):
    base = convex_hull(pts)
    shuffled = list(pts)
    rnd.shuffle(shuffled)
    perm = convex_hull(shuffled)
    assert base.corners == perm.corners
    assert base.degenerate == perm.degenerate
    by_point = {}
    for p, lab in zip(pts, base.labels):
        by_point[p] = lab
    for p, lab in zip(shuffled, perm.labels):
        assert by_point[p] == lab


# small rationals, so that repeated, collinear and edge points are common
hull_coords = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.builds(Point2, hull_coords, hull_coords), min_size=1, max_size=12))
def test_convex_hull_matches_the_fraction_chain(pts):
    got = convex_hull(pts)
    want = convex_hull_oracle(pts)
    assert (got.corners, got.labels, got.degenerate) == (want.corners, want.labels, want.degenerate)


def test_convex_polygon_validation():
    with pytest.raises(ValueError):
        ConvexPolygon([Point2(0, 0), Point2(1, 0), Point2(2, 0), Point2(0, 1)])
    with pytest.raises(ValueError):
        ConvexPolygon([Point2(0, 0), Point2(0, 1), Point2(1, 1), Point2(1, 0)])
    with pytest.raises(ValueError):
        ConvexPolygon([Point2(0, 0), Point2(1, 0), Point2(1, 0), Point2(0, 1)])


# a regular pentagon, rounded to integers, and its pentagram order: every
# corner of the star turns left, but it winds around twice
PENTAGON = [Point2(100, 0), Point2(31, 95), Point2(-81, 59), Point2(-81, -59), Point2(31, -95)]
PENTAGRAM = [PENTAGON[i] for i in (0, 2, 4, 1, 3)]


def test_convex_polygon_refuses_a_star():
    assert all(orientation(PENTAGRAM[i - 2], PENTAGRAM[i - 1], PENTAGRAM[i]) == 1 for i in range(5))
    assert len(ConvexPolygon(PENTAGON)) == 5
    with pytest.raises(ValueError, match="wind around more than once"):
        ConvexPolygon(PENTAGRAM)


def _convex_verdict(vertices):
    try:
        ConvexPolygon(vertices)
    except ValueError as exc:
        return str(exc)
    return None


def _convex_inputs():
    """(name, vertex list): random convex polygons in every rotation and
    reversed, stars and doubly wound polygons, and random orderings of
    small lattice points (mostly rejected)."""
    def pts(*xy):
        return [Point2(x, y) for x, y in xy]
    square = pts((0, 0), (4, 0), (4, 4), (0, 4))
    heptagon = pts((100, 0), (62, 78), (-22, 97), (-90, 43), (-90, -43), (-22, -97), (62, -78))
    out = [
        ("square", square),
        ("square-twice", square + square),
        ("pentagram", PENTAGRAM),
        ("heptagram-2", [heptagon[2 * i % 7] for i in range(7)]),
        ("heptagram-3", [heptagon[3 * i % 7] for i in range(7)]),
        ("collinear", pts((0, 0), (1, 0), (2, 0), (0, 1))),
        ("repeated", pts((0, 0), (1, 0), (1, 0), (0, 1))),
        ("cw", pts((0, 0), (0, 1), (1, 1), (1, 0))),
        ("two-vertices", pts((0, 0), (1, 1))),
    ]
    rng = random.Random(31)
    for i in range(200):
        vs = random_convex_polygon(rng, rng.randint(3, 9)).vertices
        k = rng.randrange(len(vs))
        out.append(("convex-%d" % i, vs[k:] + vs[:k]))
        if i < 20:
            out.append(("reversed-%d" % i, vs[::-1]))
    for i in range(150):
        vs = [Point2(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(3, 6))]
        out.append(("lattice-%d" % i, vs))
    return out


SCALES = [(1, Fraction(0)), (Fraction(1, 3 ** 40), Fraction(1, 3 ** 40)), (2 ** 1100, Fraction(0))]
SCALE_IDS = ["1", "3^-40", "2^1100"]


@pytest.mark.parametrize("factor, shift", SCALES, ids=SCALE_IDS)
def test_convex_polygon_validation_matches_the_fraction_oracle(factor, shift):
    verdicts = set()
    for name, vs in _convex_inputs():
        vs = [Point2(v.x * factor + shift, v.y * factor - shift) for v in vs]
        verdict = _convex_verdict(vs)
        assert verdict == convex_polygon_error_oracle(vs), name
        verdicts.add(verdict if verdict is None else " ".join(verdict.split(" ")[:2]))
    assert verdicts == {None, "a polygon", "vertices must", "vertices wind", "degenerate corner"}


@pytest.mark.parametrize("factor, shift", SCALES, ids=SCALE_IDS)
def test_convex_where_matches_the_fraction_oracle(factor, shift):
    # vertices, points on edges, inside and outside, and points just off
    # a vertex or an edge by 1/3 of the scale
    rng = random.Random(5)
    seen = set()
    for _ in range(30):
        P = random_convex_polygon(rng, rng.randint(3, 7), size=30)
        P = ConvexPolygon([Point2(v.x * factor + shift, v.y * factor - shift) for v in P.vertices])
        probes = []
        for a, b in P.edges():
            probes += [a, (a + b) * HALF, a + (b - a) * Fraction(1, 3)]
            probes += [a + Point2(factor, 0) * Fraction(1, 3), a - Point2(0, factor) * Fraction(1, 3)]
        x0, y0, x1, y1 = P.bounding_box()
        probes += [Point2(x0 + (x1 - x0) * Fraction(rng.randint(-2, 12), 10),
                          y0 + (y1 - y0) * Fraction(rng.randint(-2, 12), 10)) for _ in range(40)]
        for p in probes:
            w = P.where(p)
            assert w == convex_where_oracle(P, p)
            seen.add(w)
    assert seen == {"interior", "boundary", "exterior"}


def _seeded_wedge(rng, base):
    """A wedge with a rational apex near (base, -base) and two
    non-parallel rational rays."""
    def rat(bound):
        return Fraction(rng.randint(-bound, bound), rng.randint(1, 9))

    while True:
        d1, d2 = Point2(rat(20), rat(20)), Point2(rat(20), rat(20))
        if d1.cross(d2) != 0:
            return Wedge(Point2(base + rat(50), rat(50) - base), d1, d2)


@pytest.mark.parametrize("base", [0, 2 ** 60], ids=["0", "2^60"])
def test_wedge_where_matches_the_fraction_oracle(base):
    # the apex, points on both rays and on their extensions behind it,
    # inside and outside, and points off either ray by 2^-70
    rng = random.Random(13)
    tiny = Fraction(1, 2 ** 70)
    seen = set()
    for _ in range(150):
        W = _seeded_wedge(rng, base)
        v, d1, d2 = W.apex, W.dir1, W.dir2
        n1, n2 = Point2(-d1.y, d1.x), Point2(d2.y, -d2.x)  # inward normals
        probes = [v, v + d1, v + d2 * Fraction(7, 3), v - d1, v - d2, v + d1 + d2,
                  v - d1 - d2, v + d1 - d2, v + d2 - d1]
        for d, n in ((d1, n1), (d2, n2)):
            probes += [v + d * Fraction(5, 2) + n * tiny, v + d * Fraction(5, 2) - n * tiny]
        probes += [v + Point2(Fraction(rng.randint(-90, 90), rng.randint(1, 7)), rng.randint(-30, 30))
                   for _ in range(8)]
        for p in probes:
            w = W.where(p)
            assert w == oracles.wedge_where_oracle(W, p)
            seen.add(w)
    assert seen == {"interior", "boundary", "exterior"}


def _clip_lines(region, rng):
    """(anchor, d) lines for a region: through each corner along its
    edges (on the boundary), the same lines moved outward (missing),
    tangent at each corner (touching one point), just past each corner
    (missing), and random lines through the region's box."""
    if isinstance(region, Wedge):
        v, dirs = region.apex, [(region.dir1, region.dir2)]
        corners = [(v, region.dir1, -region.dir2, region.dir1 - region.dir2)]
    else:
        vs = region.vertices
        n = len(vs)
        corners = [(vs[i], vs[(i + 1) % n] - vs[i], vs[i - 1] - vs[i],
                    (vs[i] - vs[i - 1]) + (vs[(i + 1) % n] - vs[i])) for i in range(n)]
    out = []
    for v, e_next, e_prev, tangent in corners:
        outward = Point2(e_next.y, -e_next.x)  # right of the next edge
        out += [(v, e_next), (v, -e_prev), (v + outward, e_next), (v, tangent),
                (v + outward, tangent), (v - tangent, Point2(tangent.y, -tangent.x))]
    box = [v for v, *_ in corners]
    span = max(max(abs(p.x), abs(p.y)) for p in box) + 1
    for _ in range(20):
        anchor = Point2(span * Fraction(rng.randint(-20, 20), 10), span * Fraction(rng.randint(-20, 20), 10))
        d = Point2(rng.randint(-5, 5), rng.randint(-5, 5))
        if not d.is_zero():
            out.append((anchor, d))
    return out


@pytest.mark.parametrize("factor, shift", SCALES, ids=SCALE_IDS)
def test_clip_line_matches_the_fraction_oracle(factor, shift):
    rng = random.Random(9)
    regions = [random_convex_polygon(rng, rng.randint(3, 7)) for _ in range(8)]
    regions += [triangle_region(), wedge_region(),
                Wedge(Point2(Fraction(1, 3), Fraction(-2, 7)), Point2(Fraction(3, 2), Fraction(1, 5)),
                      Point2(Fraction(-1, 4), Fraction(5, 3)))]
    shapes = set()
    for region in regions:
        if isinstance(region, Wedge):
            region = Wedge(Point2(region.apex.x * factor + shift, region.apex.y * factor - shift),
                           region.dir1 * factor, region.dir2)
        else:
            region = ConvexPolygon([Point2(v.x * factor + shift, v.y * factor - shift)
                                    for v in region.vertices])
        for anchor, d in _clip_lines(region, rng):
            got = region.clip_line(anchor, d)
            assert got == clip_line_oracle(anchor, d, region.halfplanes())
            if got is None:
                shapes.add("miss")
            else:
                shapes.add(("point" if got[0] == got[1] else "segment") if None not in got
                           else "ray" if got.count(None) == 1 else "line")
                assert all(t is None or isinstance(t, Fraction) for t in got)
            if isinstance(region, ConvexPolygon):
                assert got is None or None not in got
    assert shapes == {"miss", "point", "segment", "ray"}
    with pytest.raises(ValueError):
        UNIT_SQUARE.clip_line(Point2(0, 0), Point2(0, 0))
    with pytest.raises(ValueError):
        wedge_region().clip_line(Point2(0, 0), Point2(0, 0))


def test_wedge_validation_and_orientation():
    with pytest.raises(ValueError):
        Wedge(Point2(0, 0), Point2(1, 1), Point2(2, 2))
    w = Wedge(Point2(0, 0), Point2(0, 1), Point2(1, 0))
    assert w.dir1.cross(w.dir2) > 0  # directions are stored in ccw order


def test_simple_polygon_validation():
    with pytest.raises(ValueError):
        SimplePolygon([Point2(0, 0), Point2(2, 2), Point2(2, 0), Point2(0, 2)])
    with pytest.raises(ValueError):
        SimplePolygon([Point2(0, 0), Point2(0, 2), Point2(2, 2), Point2(2, 0)])
    with pytest.raises(ValueError):  # edge doubles back over its neighbor
        SimplePolygon([Point2(0, 0), Point2(2, 0), Point2(1, 0), Point2(1, 2)])
    # straight vertices (collinear but advancing) are allowed
    P = SimplePolygon([Point2(0, 0), Point2(1, 0), Point2(2, 0), Point2(2, 2), Point2(0, 2)])
    assert len(P.vertices) == 5


def _validation_verdict(vertices):
    try:
        SimplePolygon(vertices)
    except ValueError as exc:
        return str(exc)
    return None


def _validation_inputs():
    """(name, vertex list): polygons the tests build, seeded bad inputs,
    and random orderings of small lattice points (mostly rejected)."""
    def pts(*xy):
        return [Point2(x, y) for x, y in xy]
    out = [
        ("L-hexagon", pts((0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4))),
        ("quad", pts((0, 0), (4, 0), (4, 4), (0, 4))),
        ("cli-comb", pts((0, 0), (6, 0), (6, 2), (5, 10), (4, 2), (3, 10), (2, 2),
                         (1, 10), (0, 2))),
        ("straight-vertex", pts((0, 0), (1, 0), (2, 0), (2, 2), (0, 2))),
        ("crossing", pts((0, 0), (2, 2), (2, 0), (0, 2))),
        ("folds-back", pts((0, 0), (2, 0), (1, 0), (1, 2))),
        ("folds-back-at-0", pts((1, 0), (3, 0), (3, 2), (0, 0))),
        ("repeated-vertex", pts((0, 0), (4, 0), (2, 2), (4, 4), (2, 2), (0, 4))),
        ("cw", pts((0, 0), (0, 2), (2, 2), (2, 0))),
        ("vertex-on-edge", pts((0, 0), (4, 0), (4, 4), (2, 0), (0, 4))),
        ("overlapping-walls", pts((0, 0), (4, 0), (4, 1), (3, 1), (3, 0), (2, 0), (2, 2), (0, 2))),
        ("two-vertices", pts((0, 0), (1, 1))),
        ("flat", pts((0, 0), (1, 0), (2, 0))),
    ]
    out += [("comb-%d" % s, make_comb(s).polygon.vertices) for s in range(2, 7)]
    for seed, count, lo, hi in ((11, 5, 6, 14), (17, 3, 6, 12), (1, 1, 30, 30)):
        rng = random.Random(seed)
        for i in range(count):
            star = random_star_polygon(rng, rng.randint(lo, hi))
            out.append(("star-%d-%d" % (seed, i), star.vertices))
    rng = random.Random(23)
    for i in range(150):
        vs = [Point2(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(3, 7))]
        out.append(("lattice-%d" % i, vs))
    return out


@pytest.mark.parametrize("shift", [Fraction(0), Fraction(1, 3 ** 40)], ids=["0", "3^-40"])
@pytest.mark.parametrize("factor", [1, Fraction(1, 3 ** 40), 2 ** 1100], ids=["1", "3^-40", "2^1100"])
def test_simple_polygon_validation_matches_the_fraction_oracle(factor, shift):
    # same accept/reject decision and the same message as the Fraction
    # validation, for every input under a scale and a shift
    verdicts = set()
    for name, vs in _validation_inputs():
        vs = [Point2(v.x * factor + shift, v.y * factor - shift) for v in vs]
        verdict = _validation_verdict(vs)
        assert verdict == simple_polygon_error_oracle(vs), name
        verdicts.add(verdict if verdict is None else verdict.split(" ")[0])
    assert verdicts == {None, "a", "repeated", "adjacent", "edges", "vertices"}


def test_point_arithmetic_is_exact():
    p = Point2(Fraction(1, 3), Fraction(1, 6))
    q = Point2(Fraction(1, 6), Fraction(1, 3))
    assert (p + q) == Point2(Fraction(1, 2), Fraction(1, 2))
    assert (p - q) * 6 == Point2(1, -1)
    assert p.cross(q) == Fraction(1, 9) - Fraction(1, 36)


# --- the float-first exact sort -------------------------------------------------

def _homogeneous_mix(rng, factor):
    """Homogeneous points (X, Y, W), W > 0, of one scale: a few x values,
    the same values 2^-60 apart, each point in several homogeneous forms
    (such as (2, 4, 2) and (1, 2, 1)), times factor."""
    xs = [Fraction(v) for v in (-3, 0, 1, Fraction(1, 3), 7)]
    xs += [x + Fraction(d, 2 ** 60) for x in xs[:3] for d in (-1, 1)]
    out = []
    for _ in range(120):
        x, y = rng.choice(xs) * factor, rng.choice(xs) * factor
        w = x.denominator * y.denominator * rng.choice((1, 2, 3))
        out.append((int(x * w), int(y * w), w))
    return out


@pytest.mark.parametrize("factor", [1, 2 ** 520, 2 ** 1100], ids=["1", "2^520", "2^1100"])
@pytest.mark.parametrize("seed", range(3))
def test_sorted_exact_is_the_stable_xy_sort(factor, seed):
    # 2^1100 rounds every nonzero x to +-inf: whole runs tie on the float
    # and are ordered by _XY alone; equal points in different forms keep
    # their input order, so comparing the tuples checks stability too
    items = _homogeneous_mix(random.Random(seed), factor)
    got = [items[i] for i in _sorted_exact(items, _XY)]
    assert got == sorted(items, key=_XY)
    points = {(Fraction(X, W), Fraction(Y, W)) for X, Y, W in items}
    assert len(points) < len(set(items))  # ties in other forms
    assert (inf in {_nearest(X, W) for X, _, W in items}) == (factor == 2 ** 1100)
    assert _sorted_exact([], _XY) == [] and _sorted_exact(items[:1], _XY) == [0]


@pytest.mark.parametrize("factor", [1, 2 ** 520, 2 ** 1100], ids=["1", "2^520", "2^1100"])
@pytest.mark.parametrize("seed", range(3))
def test_sorted_exact_is_the_stable_ratio_sort(factor, seed):
    # ratios (num, den), den > 0: values 2^-60 apart, equal values in
    # other forms, and values past the float range, which round to +-inf
    rng = random.Random(seed)
    values = [Fraction(v) for v in (-2, 0, Fraction(1, 7), 5)]
    values += [v + Fraction(d, 2 ** 60) for v in values for d in (-1, 1)]
    items = []
    for _ in range(120):
        v = rng.choice(values) * rng.choice((1, factor))
        m = rng.choice((1, 2, 5))
        items.append((v.numerator * m, v.denominator * m))
    got = [items[i] for i in _sorted_exact(items, _RATIO)]
    assert got == sorted(items, key=_RATIO)
    assert len({Fraction(*i) for i in items}) < len(set(items))  # ties in other forms
    floats = {_nearest(*i) for i in items}
    assert ({inf, -inf} <= floats) == (factor == 2 ** 1100)


# --- copies and pickles -------------------------------------------------------

def _fields(value):
    """What a value type holds: the constructor's arguments and, for the
    polygons, the integer form they validate."""
    if isinstance(value, Point2):
        return (value.x, value.y)
    if isinstance(value, Line):
        return (value.a, value.b, value.c)
    if isinstance(value, Halfplane):
        return _fields(value.line)
    if isinstance(value, Wedge):
        return tuple(_fields(p) for p in (value.apex, value.dir1, value.dir2))
    if isinstance(value, GuardSet):
        return value.guards
    return (type(value), tuple(value.vertices), value.scale, tuple(value.ints))


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
}
VALUES = {
    "point": Point2(Fraction(-3, 7), 5),
    "line": Line.through(Point2(1, Fraction(1, 3)), Point2(4, -2)),
    "halfplane": Halfplane.left_of(Point2(0, 0), Point2(Fraction(5, 2), 1)),
    "convex": ConvexPolygon([Point2(0, 0), Point2(Fraction(9, 2), 0), Point2(2, 7)]),
    # given clockwise, stored ccw: the copy keeps the stored order
    "wedge": Wedge(Point2(1, 1), Point2(-1, 3), Point2(2, Fraction(1, 5))),
    "simple": make_comb(3).polygon,
}


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_types_copy_and_pickle(name, how):
    value = VALUES[name]
    twin = COPIES[how](value)
    assert type(twin) is type(value)
    assert _fields(twin) == _fields(value)
    assert hash(_fields(twin)) == hash(_fields(value))
    if name == "point":
        assert twin == value and hash(twin) == hash(value)
    with pytest.raises(AttributeError, match="immutable"):
        twin.x = 1


@pytest.mark.parametrize("how", sorted(COPIES))
def test_a_guard_set_copies_without_its_analysis(how):
    region = triangle_region()
    gs = GuardSet([Point2(1, 1), Point2(2, 1), Point2(Fraction(5, 2), 2), Point2(3, 1)])
    max_darkness(region, gs)
    assert gs._analysis is not None
    twin = COPIES[how](gs)
    assert twin.guards == gs.guards
    assert hash(twin.guards) == hash(gs.guards)
    assert twin._analysis is None
    assert max_darkness(region, twin).darkness == max_darkness(region, gs).darkness
    assert twin._analysis is not gs._analysis


def _slots(value):
    """What a frozen value holds, read down through its public slots,
    sequences and dicts to values that compare by equality."""
    if isinstance(value, _Frozen):
        return (type(value),) + tuple(
            (name, _slots(getattr(value, name)))
            for cls in type(value).__mro__ for name in cls.__dict__.get("__slots__", ())
            if not name.startswith("_"))
    if isinstance(value, (list, tuple)):
        return tuple(_slots(v) for v in value)
    if isinstance(value, dict):
        return tuple((k, _slots(v)) for k, v in value.items())
    return value


COMB = make_comb(3)
_GUARDS = GuardSet([Point2(1, 1), Point2(2, 1), Point2(3, 1)])
FROZEN = dict(VALUES, **{
    "guards": _GUARDS,
    "comb": COMB,
    "fisk-plan": fisk_plan(COMB.polygon),
    "sample-report": sample_depth(COMB.polygon, [COMB.spike_tip(0)], ("grid", 3), target=1),
    "j-dark": JDarkResult(2, True, Point2(Fraction(1, 3), 2)),
    "placement": PlacementDocument(triangle_region(), _GUARDS, "row", {"k": 2}, seed=5),
    "certificate": CertificateDocument(
        "sampled", 3, 1, 2, Point2(1, 1), [JDarkResult(2, False)], ("random", 7, 4)),
})


def test_the_frozen_table_holds_every_frozen_type():
    def public(cls):
        for sub in cls.__subclasses__():
            yield from public(sub)
            if not sub.__name__.startswith("_"):
                yield sub
    assert {type(v) for v in FROZEN.values()} == set(public(_Frozen))


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("name", sorted(set(FROZEN) - set(VALUES) - {"guards"}))
def test_result_and_document_types_copy_and_pickle(name, how):
    value = FROZEN[name]
    twin = COPIES[how](value)
    assert type(twin) is type(value)
    assert twin is not value and _slots(twin) == _slots(value)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(twin, type(twin).__slots__[0], None)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_types_refuse_deletion(name):
    value = FROZEN[name]
    before = _slots(value)
    names = [n for cls in type(value).__mro__ for n in cls.__dict__.get("__slots__", ())]
    assert names
    for slot in names:
        with pytest.raises(AttributeError, match="immutable"):
            delattr(value, slot)
    assert _slots(value) == before
