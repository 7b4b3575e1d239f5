"""Guard placements for convex polygons and wedges across the three regimes."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from darkgallery.construct import (
    _StreamPlacer,
    construct,
    guards_for_wedge,
    place_4n_minus_2,
    place_general_position,
    place_vertex_guards,
    place_wedge,
    plan,
    zigzag,
)
from darkgallery.darkness import (
    find_collinear_triple,
    find_concurrent_dark_rays,
    has_j_dark,
    max_darkness,
    min_depth,
)
from darkgallery.fixtures import builtin_fixture, wedge_region
from darkgallery.geometry import ConvexPolygon, Point2, Wedge, _homogeneous, strictly_between

import oracles
from conftest import random_affine_map, random_convex_polygon
from test_darkness import concurrent_star

TRIANGLE = ConvexPolygon([Point2(0, 0), Point2(8, 0), Point2(4, 8)])
SQUARE = ConvexPolygon([Point2(0, 0), Point2(8, 0), Point2(8, 8), Point2(0, 8)])
PENTAGON = ConvexPolygon(
    [Point2(2, 0), Point2(6, 1), Point2(7, 5), Point2(3, 8), Point2(0, 4)])


# --- regime planning ----------------------------------------------------------

def test_plan_table_for_a_triangle():
    assert [plan(3, k).g for k in range(1, 12)] == [1, 2, 3, 5, 6, 7, 8, 9, 10, 12, 13]


def test_plan_regime_switches():
    assert plan(3, 3).regime == "vertex-guards"
    assert plan(3, 4).regime == "one-extra"
    assert plan(3, 10).regime == "two-extra"
    assert plan(4, 13).g == 14 and plan(4, 13).regime == "one-extra"
    assert plan(4, 14).g == 16 and plan(4, 14).regime == "two-extra"


def test_plan_rejects_bad_inputs():
    with pytest.raises(ValueError):
        plan(2, 1)
    with pytest.raises(ValueError):
        plan(3, 0)


# --- vertex guards ------------------------------------------------------------

def test_vertex_guards_cover_to_their_count():
    for P, k in ((TRIANGLE, 3), (SQUARE, 2), (PENTAGON, 5)):
        gs = place_vertex_guards(P, k)
        assert list(gs.guards) == list(P.vertices)[:k]
        cert = min_depth(P, gs)
        assert cert.max_darkness == 0
        assert cert.min_depth == k


def test_vertex_guards_reject_k_beyond_n():
    with pytest.raises(ValueError):
        place_vertex_guards(TRIANGLE, 4)
    with pytest.raises(ValueError):
        place_vertex_guards(TRIANGLE, 0)


# --- serpentine triangulation ---------------------------------------------------

def test_zigzag_paths():
    assert zigzag(TRIANGLE).path == [0, 2, 1]
    assert zigzag(SQUARE).path == [0, 3, 1, 2]


def test_zigzag_triangles_have_polygon_edge_bases():
    rng = random.Random(1)
    for n in range(3, 9):
        P = random_convex_polygon(rng, n)
        zz = zigzag(P)
        tris = zz.triangles()
        assert len(tris) == n - 2
        assert sorted(a for a, _ in tris) == sorted(set(range(n)) - set(zz.endpoints))
        for apex, base in tris:
            assert apex not in (base, (base + 1) % n)


# --- the 4n-2 construction ------------------------------------------------------

def test_4n_minus_2_counts_and_certificates():
    for P in (TRIANGLE, SQUARE):
        n = len(P.vertices)
        gs, _ = place_4n_minus_2(P)
        assert len(gs) == 4 * n - 2
        cert = min_depth(P, gs)
        assert cert.max_darkness <= 1
        assert cert.min_depth == 4 * n - 3


def test_4n_minus_2_on_a_random_7gon():
    rng = random.Random(77)
    P = random_convex_polygon(rng, 7)
    gs, _ = place_4n_minus_2(P)
    assert len(gs) == 26
    assert max_darkness(P, gs).darkness <= 1


def test_scaffold_geometry():
    rng = random.Random(7)
    for P in (TRIANGLE, SQUARE, random_convex_polygon(rng, 5)):
        n = len(P.vertices)
        gs, sc = place_4n_minus_2(P)
        # one boundary guard per vertex, alone on the edge that ends there
        per_edge = []
        for j in range(n):
            v, w = P.vertices[j], P.vertices[(j + 1) % n]
            per_edge.append([g for g in gs.guards if strictly_between(v, g, w)])
        assert all(len(m) == 1 for m in per_edge)
        for i in range(n):
            assert P.where(sc.x[i]) == "boundary"
            assert per_edge[(i - 1) % n] == [sc.x[i]]
            assert P.where(sc.y[i]) == "interior"
            assert P.where(sc.z[i]) == "interior"
        assert not any(g in P.vertices for g in gs.guards)
        # the two interior companions of each vertex stay in its own pocket
        for i in range(n):
            R = sc.safe_region[i]
            assert R.contains(sc.y[i]) and R.contains(sc.z[i])
        for i, j in itertools.combinations(range(n), 2):
            A, B = sc.safe_region[i], sc.safe_region[j]
            assert not any(B.contains(v) for v in A.vertices)
            assert not any(A.contains(v) for v in B.vertices)
        # one elbow per triangle of the serpentine triangulation, inside P
        assert len(sc.elbow) == n - 2
        assert all(P.where(e) == "interior" for e in sc.elbow.values())


def test_guard_order_is_triples_then_elbows():
    gs, sc = place_4n_minus_2(TRIANGLE)
    expect = []
    for i in range(3):
        expect.extend((sc.x[i], sc.y[i], sc.z[i]))
    expect.append(sc.elbow[2])
    assert list(gs.guards) == expect


def test_construction_is_affine_equivariant():
    rng = random.Random(99)
    base, _ = place_4n_minus_2(TRIANGLE)
    for _ in range(3):
        apply, _, _ = random_affine_map(rng)
        Q = ConvexPolygon([apply(v) for v in TRIANGLE.vertices])
        moved, _ = place_4n_minus_2(Q)
        assert list(moved.guards) == [apply(g) for g in base.guards]


# --- general position ------------------------------------------------------------

def test_general_position_has_no_triple_alignments():
    for region, g in ((TRIANGLE, 12), (wedge_region(), 8)):
        gs = place_general_position(region, g)
        assert len(gs) == g
        assert find_collinear_triple(gs.guards) is None
        assert find_concurrent_dark_rays(gs.guards) is None
        cert = min_depth(region, gs)
        assert cert.min_depth >= g - 2


def test_concurrent_dark_rays_come_straight_from_the_lines():
    # two rays per collinear group, against the unbounded pieces of a full
    # plane-wide analysis, on this file's placements
    sets = [concurrent_star()[1], place_general_position(TRIANGLE, 12).guards,
            place_general_position(wedge_region(), 8).guards,
            place_vertex_guards(PENTAGON, 5).guards, place_wedge(wedge_region(), 9).guards,
            construct(SQUARE, 13).guards, construct(TRIANGLE, 10).guards]
    sets += [place_4n_minus_2(P)[0].guards
             for P in (TRIANGLE, SQUARE, PENTAGON, random_convex_polygon(random.Random(77), 7))]
    hits = [find_concurrent_dark_rays(guards) for guards in sets]
    assert hits == [oracles.find_concurrent_dark_rays_oracle(guards) for guards in sets]
    assert hits[0] == (Point2(-4, 6), 3) and hits[4] is not None


def test_general_position_rejects_zero_guards():
    with pytest.raises(ValueError):
        place_general_position(TRIANGLE, 0)


@pytest.mark.parametrize("g", [2.0, True, Fraction(12)], ids=["float", "bool", "Fraction"])
def test_general_position_refuses_a_count_that_is_not_an_int(g):
    with pytest.raises(TypeError, match="g must be an int"):
        place_general_position(TRIANGLE, g)


@pytest.mark.parametrize("region, g, restarts", [
    pytest.param(TRIANGLE, 12, 0, id="triangle-g12"),
    pytest.param(wedge_region(), 8, 0, id="wedge-g8"),
    pytest.param(wedge_region(), 12, 0, id="wedge-g12"),
    pytest.param(random_convex_polygon(random.Random(1), 8), 20, 1, id="8-gon-g20"),
    pytest.param(random_convex_polygon(random.Random(1), 5), 30, 2, id="5-gon-g30"),
])
def test_general_position_matches_the_restarting_oracle(region, g, restarts, monkeypatch):
    # one pass over (t, t^2) places what the former loop placed, however
    # often that loop ran out of span and started again
    runs = []
    make = oracles.StreamPlacerOracle
    monkeypatch.setattr(oracles, "StreamPlacerOracle", lambda: runs.append(1) or make())
    want = oracles.place_general_position_oracle(region, g)
    assert len(runs) == restarts + 1
    assert list(place_general_position(region, g).guards) == list(want.guards)


def test_stream_placer_line_coeffs_are_primitive_and_exact():
    # (1/3, 2/5) and (7/2, -1/6) as homogeneous integers at scale 1
    p, q = (5, 6, 15), (21, -1, 6)
    placer = _StreamPlacer()
    assert placer.try_add(p) and placer.try_add(q)
    [((a, b, c), i, j)] = placer.lines
    assert (i, j) == (0, 1)
    assert all(type(t) is int for t in (a, b, c))
    assert gcd(a, b, c) == 1
    for x, y, w in (p, q):
        assert a * x + b * y + c * w == 0


def test_stream_placer_rejects_a_line_through_an_existing_crossing():
    placer = _StreamPlacer()
    for x, y in ((0, 0), (4, 0), (0, 4), (4, 4), (1, 5)):
        assert placer.try_add((x, y, 1))
    points, lines = list(placer.points), list(placer.lines)
    # the line from (5/2, 1/2) to (1, 5) passes through (2, 2), where the
    # diagonals (0,0)-(4,4) and (4,0)-(0,4) already cross
    assert not placer.try_add((5, 1, 2))
    assert placer.points == points and placer.lines == lines


def _lattice_stream(seed):
    """Distinct points with denominators 1 to 4."""
    rng = random.Random(seed)
    return list(dict.fromkeys(
        Point2(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
               Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        for _ in range(90)))


HALF = Fraction(1, 2)
# (0,0)-(1/2,0) and (0,1/2)-(1/2,1/2) are parallel to the line from
# (9/2, 7/2) to (5/2, 7/2): they meet it only at infinity, so (9/2, 7/2)
# is accepted; (7/2, 7/2) is refused
PARALLEL_STREAM = [Point2(0, 0), Point2(HALF, 0), Point2(0, HALF), Point2(HALF, HALF),
                   Point2(5 * HALF, 7 * HALF), Point2(9 * HALF, 7 * HALF),
                   Point2(7 * HALF, 7 * HALF)]


@pytest.mark.parametrize("stream, scale", [
    pytest.param(_lattice_stream(seed), (1, 6, 12)[seed % 3], id="seed-%d" % seed)
    for seed in range(6)] + [pytest.param(PARALLEL_STREAM, 12, id="parallel")])
def test_stream_placer_decides_as_the_fraction_placer(stream, scale):
    # every point goes to both placers, in one scale for the integer one
    placer, oracle = _StreamPlacer(), oracles.StreamPlacerOracle()
    decisions = []
    for p in stream:
        want = oracle.try_add(p)
        assert placer.try_add(_homogeneous(p, scale)) == want, p
        decisions.append(want)
    assert True in decisions and False in decisions


# --- top-level dispatch and tightness ---------------------------------------------

def test_construct_picks_the_right_regime():
    assert len(construct(TRIANGLE, 1)) == 1
    assert list(construct(PENTAGON, 3).guards) == list(PENTAGON.vertices)[:3]
    assert len(construct(TRIANGLE, 4)) == 5
    assert len(construct(SQUARE, 13)) == 14
    assert len(construct(TRIANGLE, 10)) == 12


def test_construct_refuses_a_region_that_is_not_a_convex_polygon():
    with pytest.raises(TypeError, match=r"Wedge\(apex=.*place_wedge.*fisk_cover"):
        construct(wedge_region(), 3)


def test_construct_meets_requested_depth():
    rng = random.Random(3)
    P = random_convex_polygon(rng, 4)
    for k in (2, 5, 14):
        gs = construct(P, k)
        cert = min_depth(P, gs)
        assert cert.min_depth >= k
        assert len(gs) == plan(4, k).g


def test_one_fewer_guard_breaks_depth_k():
    # removing any guard from the k+1 placement leaves k guards with a
    # 1-dark point, so k guards cannot reach depth k in this regime
    full = construct(SQUARE, 13)
    for drop in (0, len(full) - 1):
        sub = [g for i, g in enumerate(full.guards) if i != drop]
        found, witness = has_j_dark(SQUARE, sub, 1)
        assert found and SQUARE.contains(witness.point)
    # likewise 4n-1 guards always contain a 2-dark point
    big = construct(TRIANGLE, 10)
    for drop in (0, 5, len(big) - 1):
        sub = [g for i, g in enumerate(big.guards) if i != drop]
        found, _ = has_j_dark(TRIANGLE, sub, 2)
        assert found


# --- wedges ------------------------------------------------------------------------

def test_wedge_guard_counts():
    assert [guards_for_wedge(k) for k in range(1, 12)] == [1, 2, 4, 5, 6, 7, 8, 9, 10, 12, 13]
    with pytest.raises(ValueError):
        guards_for_wedge(0)


def test_wedge_small_depths():
    W = wedge_region()
    gs1 = place_wedge(W, 1)
    assert list(gs1.guards) == [W.apex]
    gs2 = place_wedge(W, 2)
    cert = min_depth(W, gs2)
    assert cert.max_darkness == 0 and cert.min_depth == 2


def test_wedge_mid_depths_take_fixture_prefixes():
    W = wedge_region()
    _, fixture_guards = builtin_fixture("wedge")
    for k in (3, 6, 9):
        gs = place_wedge(W, k)
        assert list(gs.guards) == list(fixture_guards.guards)[: k + 1]
        assert min_depth(W, gs).min_depth >= k


def test_wedge_carries_onto_other_wedges():
    W = Wedge(Point2(5, -3), Point2(1, 2), Point2(-2, 1))
    gs = place_wedge(W, 5)
    assert len(gs) == 6
    cert = min_depth(W, gs)
    assert cert.min_depth == 5 and cert.max_darkness == 1


def test_wedge_large_depth_goes_general_position():
    W = wedge_region()
    gs = place_wedge(W, 10)
    assert len(gs) == 12
    assert find_collinear_triple(gs.guards) is None
    assert min_depth(W, gs).min_depth >= 10
