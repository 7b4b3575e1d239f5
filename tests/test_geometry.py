"""Exact predicates and region primitives."""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkgallery.geometry import (
    COINCIDENT,
    PARALLEL,
    ConvexPolygon,
    Halfplane,
    Line,
    Point2,
    SimplePolygon,
    Wedge,
    convex_hull,
    halfplane_intersection,
    line_intersection,
    orientation,
)
from darkgallery.construct import place_4n_minus_2
from darkgallery.fixtures import triangle_region, wedge_region
from darkgallery.simple import make_comb

from conftest import random_convex_polygon, random_star_polygon
from oracles import convex_hull_oracle, halfplane_intersection_oracle, simple_polygon_error_oracle

coords = st.integers(min_value=-50, max_value=50)
points = st.builds(Point2, coords, coords)


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
        _assert_matches_oracle(hps)


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
