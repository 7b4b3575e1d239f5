"""Guard placements for convex polygons and wedges across the three regimes."""

from __future__ import annotations

import itertools
import random
import re
import sys
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from darkgallery.construct import (
    ConstructionError,
    ConstructionScaffold,
    _build_scaffold,
    _dyadic,
    _Infeasible,
    _interior_anchor_and_margin,
    _snap_along_edge,
    _snap_in_frame,
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
from darkgallery import darkness
from darkgallery.darkness import (
    BoundaryCensus,
    GuardSet,
    boundary_census,
    darkness_at,
    find_concurrent_dark_rays,
    has_j_dark,
    max_darkness,
    min_depth,
)
from darkgallery.fixtures import builtin_fixture, wedge_region
from darkgallery.geometry import (
    ConvexPolygon,
    Point2,
    Wedge,
    _homogeneous,
    as_int,
)
from darkgallery.sampling import sample_depth
from darkgallery.simple import comb_cover, fisk_cover, make_comb

import oracles
from oracles import find_collinear_triple, lerp, strictly_between
from conftest import distinct_interior_points, random_affine_map, random_convex_polygon
from test_darkness import concurrent_star, witness_facts

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


NOT_INTS = pytest.mark.parametrize("k", [True, 4.0, Fraction(4)], ids=["bool", "float", "Fraction"])


@NOT_INTS
def test_plan_and_construct_refuse_a_depth_that_is_not_an_int(k):
    # True once passed as depth 1 and 4.0 died slicing the 4n-2 placement
    with pytest.raises(TypeError, match="k must be an int"):
        plan(3, k)
    with pytest.raises(TypeError, match="k must be an int"):
        construct(TRIANGLE, k)


@NOT_INTS
def test_wedge_placement_refuses_a_depth_that_is_not_an_int(k):
    with pytest.raises(TypeError, match="k must be an int"):
        guards_for_wedge(k)
    with pytest.raises(TypeError, match="k must be an int"):
        place_wedge(wedge_region(), k)


@pytest.mark.parametrize("value", [True, 2.0, Fraction(2), "2", 2.7],
                         ids=["bool", "float", "Fraction", "str", "2.7"])
def test_every_count_is_refused_by_the_one_int_check(value):
    # True once placed a depth-1 cover, 2.0 and Fraction(2) died inside
    # range(), has_j_dark took 1.5, plan(3.5, 5) made a plan for n=3,
    # and the samplers truncated 2.7: every
    # entry point now refuses what is not an int, naming the argument
    comb = make_comb(2)
    guards = list(place_vertex_guards(TRIANGLE, 3))
    calls = [
        ("k", lambda: plan(3, value)),
        ("n", lambda: plan(value, 5)),
        ("k", lambda: construct(TRIANGLE, value)),
        ("k", lambda: place_vertex_guards(TRIANGLE, value)),
        ("k", lambda: guards_for_wedge(value)),
        ("k", lambda: place_wedge(wedge_region(), value)),
        ("g", lambda: place_general_position(TRIANGLE, value)),
        ("j", lambda: has_j_dark(TRIANGLE, guards, value)),
        ("k", lambda: fisk_cover(comb.polygon, value)),
        ("k", lambda: comb_cover(comb, value)),
        ("s", lambda: make_comb(value)),
        ("grid resolution", lambda: sample_depth(TRIANGLE, guards, ("grid", value))),
        ("random seed", lambda: sample_depth(TRIANGLE, guards, ("random", value, 3))),
        ("sample count", lambda: sample_depth(TRIANGLE, guards, ("random", 1, value))),
        ("depth", lambda: as_int(value, "depth")),
    ]
    for name, call in calls:
        with pytest.raises(TypeError, match=re.escape("%s must be an int, got %r" % (name, value))):
            call()
    assert as_int(2, "depth") == 2


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


def _quad(size):
    """A thin quad whose exit points miss their segments at eps = 1/4 and
    12 bits."""
    return ConvexPolygon([Point2(0, 0), Point2(size, 0), Point2(size, 3), Point2(0, size)])


RATIONAL_PENTAGON = ConvexPolygon([
    Point2(Fraction(1, 3), Fraction(-2, 7)), Point2(Fraction(41, 5), Fraction(1, 9)),
    Point2(Fraction(19, 2), Fraction(16, 3)), Point2(Fraction(13, 6), Fraction(22, 3)),
    Point2(Fraction(-3, 4), Fraction(5, 2))])

SCAFFOLD_FIELDS = ("before", "after", "exit_before", "exit_after", "x", "y", "z", "fence")


def _scaffold_fields(sc):
    fields = {name: list(getattr(sc, name)) for name in SCAFFOLD_FIELDS}
    fields["elbow"] = dict(sc.elbow)
    fields["safe_region"] = [list(r.vertices) for r in sc.safe_region]
    fields["eps"] = sc.eps
    fields["guards"] = sc.guards()
    return fields


def _same_build(P, eps, bits):
    """Build P's scaffold both ways and assert the same refusal or equal
    fields; returns the refusal, or "built"."""
    try:
        want = _scaffold_fields(oracles.build_scaffold_oracle(P, eps, bits))
    except _Infeasible as exc:
        with pytest.raises(_Infeasible) as info:
            _build_scaffold(P, eps, bits)
        assert str(info.value) == str(exc)
        return str(exc)
    sc = _build_scaffold(P, eps, bits)
    sc._fill()
    assert _scaffold_fields(sc) == want
    return "built"


def _library_attempts(P, monkeypatch):
    """(eps, bits, outcome) for each attempt place_4n_minus_2 makes, in
    the oracle's terms, and its (GuardSet, scaffold), or None when it
    raises ConstructionError."""
    module = sys.modules["darkgallery.construct"]
    build, log = module._build_scaffold, []

    def spy(P, eps, bits):
        try:
            sc = build(P, eps, bits)
        except _Infeasible as exc:
            log.append((eps, bits, str(exc)))
            raise
        log.append((eps, bits, "2-dark"))
        return sc

    monkeypatch.setattr(module, "_build_scaffold", spy)
    try:
        placed = place_4n_minus_2(P)
    except ConstructionError:
        placed = None
    else:
        log[-1] = log[-1][:2] + ("accepted",)
    return log, placed


@pytest.mark.parametrize("P", [
    pytest.param(TRIANGLE, id="triangle"),
    pytest.param(SQUARE, id="square"),
    pytest.param(PENTAGON, id="pentagon"),
    pytest.param(random_convex_polygon(random.Random(77), 7), id="7-gon"),
    pytest.param(random_convex_polygon(random.Random(6), 6), id="6-gon"),
    pytest.param(random_convex_polygon(random.Random(8), 8), id="8-gon"),
    pytest.param(random_convex_polygon(random.Random(10), 10), id="10-gon"),
    pytest.param(random_convex_polygon(random.Random(12), 12), id="12-gon"),
    pytest.param(RATIONAL_PENTAGON, id="rational-pentagon"),
    pytest.param(_quad(10 ** 4), id="quad-1e4"),
    pytest.param(_quad(10 ** 6), id="quad-1e6"),
])
def test_integer_scaffold_matches_the_fraction_oracle(P, monkeypatch):
    # the same outcome for every attempt of the eps/bits schedule, the
    # same accepted attempt, and equal scaffold fields whenever one is built
    want, accepted = oracles.place_4n_minus_2_attempts_oracle(P)
    got, placed = _library_attempts(P, monkeypatch)
    assert got == want
    monkeypatch.undo()
    for eps, bits, _ in want:
        _same_build(P, eps, bits)
    if accepted is None:
        assert placed is None
    else:
        guards, sc = placed
        assert list(guards.guards) == accepted.guards()
        assert _scaffold_fields(sc) == _scaffold_fields(accepted)


HULL_HEXAGON = ConvexPolygon([Point2(x, y) for x, y in (
    (315, 0), (361, 278), (362, 288), (109, 382), (0, 402), (126, 74))])
CHORD_12GON = ConvexPolygon([Point2(x, y) for x, y in (
    (316, 0), (378, 73), (390, 128), (388, 184), (385, 186), (275, 259),
    (210, 287), (160, 304), (55, 337), (0, 298), (56, 68), (225, 11))])


@pytest.mark.parametrize("P, refusal", [
    pytest.param(HULL_HEXAGON, "an edge or hull guard fell inside the guard hull", id="hull"),
    pytest.param(CHORD_12GON, "base chord at vertex 4 is on the wrong side", id="base-chord"),
])
def test_integer_scaffold_matches_the_oracle_over_the_whole_schedule(P, refusal):
    # every (eps, bits) of the schedule, not only those place_4n_minus_2
    # reaches; at eps 1/16 and 12 bits each scene is refused further on
    # than at its exit points
    outcomes = [_same_build(P, Fraction(1, 4 << (attempt // 4)), 12 + 4 * (attempt % 4))
                for attempt in range(16)]
    assert outcomes[8] == refusal
    assert outcomes.count("built") >= 8


def _affine(h):
    X, Y, W = h
    return Point2(Fraction(X, W), Fraction(Y, W))


def test_dyadic_rounds_ties_up_as_the_fraction_rounding():
    # num / den on and between the half-steps of 2**-bits, negative too
    for bits in range(4):
        for den in (1, 2, 3, 4, 8, 12):
            for num in range(-3 * den, 3 * den + 1):
                want = oracles._dyadic(Fraction(num, den), bits) * (1 << bits)
                assert _dyadic(num, den, bits) == want, (num, den, bits)
    assert _dyadic(-1, 2, 0) == 0 and _dyadic(1, 2, 0) == 1


@pytest.mark.parametrize("seed", range(4))
def test_integer_snaps_round_as_the_fraction_snaps(seed):
    # random frames and targets; accept everything, nothing, only the
    # target (the fallback), or one side of a line close by the target
    # (coarse grids fail, finer ones pass)
    rng = random.Random(seed)
    for _ in range(40):
        w = rng.choice((1, 3, 4, 64))
        o, e1, e2 = [(rng.randint(-60, 60), rng.randint(-60, 60)) for _ in range(3)]
        target = (rng.randint(-10 ** 6, 10 ** 6), rng.randint(-10 ** 6, 10 ** 6),
                  rng.randint(1, 10 ** 4))
        t = _affine(target)
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        c = a * t.x + b * t.y + Fraction(rng.randint(-3, 3), rng.choice((1, 10 ** 3, 10 ** 9)))
        for accept in (lambda p: True, lambda p: False, lambda p: p == t,
                       lambda p: a * p.x + b * p.y > c):
            got = _snap_in_frame(target, o, e1, e2, w, lambda q: accept(_affine(q)), 12)
            want = oracles._snap_in_frame(
                t, _affine(o + (w,)), _affine(e1 + (w,)), _affine(e2 + (w,)), accept, 12)
            assert (got if got is None else _affine(got)) == want
        v, u = o, e1
        if v == u:
            continue
        num = rng.choice((1, -1)) * rng.randint(1, 10 ** 6)
        den = rng.choice((1, 7, 10 ** 3, 1 << 70))
        reach = Fraction(num, den)
        got = _snap_along_edge(v + (1,), u + (1,), num, den, 12)
        param = oracles._snap_param(reach / 4, lambda q: 0 < q < reach, 12)
        want = None if param is None else lerp(Point2(*v), Point2(*u), param)
        assert (got if got is None else _affine(got)) == want


def test_thin_quads_take_later_attempts_or_fail():
    # the 10^4 quad builds no scaffold at attempts 0 and 1 and is accepted
    # at attempt 2, eps 1/4 with 20 bits; the 10^6 quad builds none at
    # attempts 0-34 and is accepted at the last, eps 1/1024 with 24 bits;
    # the 10^12 quad fails all 36
    want, accepted = oracles.place_4n_minus_2_attempts_oracle(_quad(10 ** 4))
    assert [outcome.split(" misses")[0] for _, _, outcome in want] == [
        "exit point before vertex 1", "exit point after vertex 1", "accepted"]
    assert want[-1][:2] == (Fraction(1, 4), 20) and accepted.eps == Fraction(1, 4)
    want, accepted = oracles.place_4n_minus_2_attempts_oracle(_quad(10 ** 6))
    assert len(want) == 36 and want[-1] == (Fraction(1, 1024), 24, "accepted")
    assert all(outcome.startswith("exit point") for _, _, outcome in want[:-1])
    assert accepted.eps == Fraction(1, 1024)
    want, accepted = oracles.place_4n_minus_2_attempts_oracle(_quad(10 ** 12))
    assert len(want) == 36 and accepted is None
    assert all(outcome.startswith("exit point") for _, _, outcome in want)


def test_the_schedule_keeps_its_first_sixteen_attempts(monkeypatch):
    # eps halves every 4 attempts and the bits cycle 12/16/20/24, from
    # (1/4, 12) to (1/1024, 24); the first 16 are the former schedule
    got, placed = _library_attempts(_quad(10 ** 12), monkeypatch)
    assert placed is None
    assert [(eps, bits) for eps, bits, _ in got] == [
        (Fraction(1, 4 << (a // 4)), 12 + 4 * (a % 4)) for a in range(36)]


@pytest.mark.parametrize("k", range(5, 14))
def test_construct_certifies_the_thin_quad(k):
    # one-extra regime of a quad: 4 < k < 14; every k used to fail
    P = _quad(10 ** 6)
    guards = construct(P, k)
    assert len(guards) == plan(4, k).g
    assert len(guards) - max_darkness(P, guards).darkness >= k


def test_construct_builds_no_scaffold_field_it_does_not_read(monkeypatch):
    # the fields that are not guards are built on first read, once
    fills = []
    fill = ConstructionScaffold._fill

    def spy(sc):
        fills.append(sc)
        fill(sc)

    monkeypatch.setattr(ConstructionScaffold, "_fill", spy)
    construct(SQUARE, 7)
    assert fills == []
    gs, sc = place_4n_minus_2(SQUARE)
    assert fills == []
    before = sc.before
    assert fills == [sc] and sc.before is before
    assert len(sc.safe_region) == 4 and None not in sc.exit_after
    assert fills == [sc]
    with pytest.raises(AttributeError):
        sc.no_such_field


def test_a_placement_that_builds_no_scaffold_says_so():
    with pytest.raises(ConstructionError) as info:
        place_4n_minus_2(_quad(10 ** 12))
    assert str(info.value) == (
        "no 4n-2 placement after 36 attempts: 0 had a 2-dark point, 36 built no "
        "scaffold (the last: exit point before vertex 1 misses its segment)")
    assert info.value.witness is None


def test_snapped_guards_are_dyadic_in_the_polygon_frame():
    # every guard is integral in a power-of-two extension of P's frame
    P = RATIONAL_PENTAGON
    gs, _ = place_4n_minus_2(P)
    for g in gs.guards:
        X, Y, W = _homogeneous(g, P.scale)
        assert W & (W - 1) == 0, g


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


@pytest.mark.parametrize("region", [
    pytest.param(TRIANGLE, id="triangle"),
    pytest.param(RATIONAL_PENTAGON, id="rational-pentagon"),
    pytest.param(random_convex_polygon(random.Random(1), 8), id="8-gon"),
    pytest.param(wedge_region(), id="fixture-wedge"),
    pytest.param(Wedge(Point2(5, -3), Point2(1, 2), Point2(-2, 1)), id="wedge"),
    pytest.param(Wedge(Point2(Fraction(1, 3), Fraction(7, 5)), Point2(Fraction(3, 2), 1),
                       Point2(-1, Fraction(4, 7))), id="rational-wedge"),
])
def test_interior_anchor_and_margin_match_the_fraction_halfplanes(region):
    assert _interior_anchor_and_margin(region) == oracles.interior_anchor_and_margin_oracle(region)


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


# --- certify once: the prefix's analysis comes from the 4n-2 certificate ------

ONE_EXTRA_POLYGONS = {
    "triangle": TRIANGLE,
    "square": SQUARE,
    "6-gon": random_convex_polygon(random.Random(6), 6),
    "8-gon": random_convex_polygon(random.Random(8), 8),
}


def _lines_at(analysis, f):
    """The analysis's lines in a frame f times as fine."""
    return [(ux, uy, c * f, [(t * f, i) for t, i in members])
            for ux, uy, c, members in analysis.lines]


def _pieces_at(analysis, f):
    """The analysis's pieces in a frame f times as fine, each far end as
    its value: a clip of the same line in another frame gives another
    (hin, hid) for it."""
    return [(ax * f, ay * f, dx, dy, None if hin is None else Fraction(hin, hid) * f, *rest)
            for ax, ay, dx, dy, hin, hid, *rest in analysis.pieces]


def _census_fields(census):
    return {name: getattr(census, name) for name in BoundaryCensus.__slots__}


def _same_certificates(P, derived_gs, fresh_gs):
    cert, want = min_depth(P, derived_gs), min_depth(P, fresh_gs)
    assert (cert.min_depth, witness_facts(cert.witness)) == (want.min_depth,
                                                             witness_facts(want.witness))
    for j in (2, 3):
        got, exp = has_j_dark(P, derived_gs, j), has_j_dark(P, fresh_gs, j)
        assert (got[0], witness_facts(got[1])) == (exp[0], witness_facts(exp[1]))
    at = want.witness.point
    assert (witness_facts(darkness_at(P, derived_gs, at))
            == witness_facts(darkness_at(P, fresh_gs, at)))
    assert _census_fields(boundary_census(P, derived_gs)) == _census_fields(
        boundary_census(P, fresh_gs))


def _prefix_builds(monkeypatch, region, full, g):
    """(prefix, number of analyses built for it)."""
    builds = []
    build = darkness._Analysis.__init__
    with monkeypatch.context() as m:
        m.setattr(darkness._Analysis, "__init__",
                  lambda self, *args: builds.append(1) or build(self, *args))
        prefix = darkness._prefix(region, full, g)
    return prefix, len(builds)


@pytest.mark.parametrize("name", sorted(ONE_EXTRA_POLYGONS))
def test_a_derived_prefix_analysis_is_a_fresh_one(name, monkeypatch):
    # every one-extra k: the analysis derived from the 4n-2 certificate
    # answers every query as one built from scratch on the prefix, with
    # lines and pieces equal up to the frame's scale
    P = ONE_EXTRA_POLYGONS[name]
    n = len(P.vertices)
    full, _ = place_4n_minus_2(P)
    parent = full._analysis
    assert parent is not None and parent.region is P
    for k in range(n + 1, 4 * n - 2):
        g = plan(n, k).g
        prefix, builds = _prefix_builds(monkeypatch, P, full, g)
        assert builds == 0
        assert list(prefix.guards) == list(full.guards[:g])
        derived = prefix._analysis
        assert derived.frame.scale == parent.frame.scale
        assert derived.frame.ints == parent.frame.ints[:g]
        assert derived.frame.walls == parent.frame.walls
        assert derived.crossings() is parent.crossings()
        kept = [rec for rec in parent.lines if all(i < g for _, i in rec[3])]
        assert derived.lines == kept
        kept_ids = [line_id for line_id, rec in enumerate(parent.lines) if rec in kept]
        assert [p[:8] for p in derived.pieces] == [p[:8] for p in parent.pieces
                                                    if p[8] in kept_ids]
        assert [p[8] for p in derived.pieces] == [kept_ids.index(p[8]) for p in parent.pieces
                                                    if p[8] in kept_ids]

        fresh_gs = GuardSet(prefix.guards)
        fresh = darkness._analysis(P, fresh_gs)
        f, rem = divmod(derived.frame.scale, fresh.frame.scale)
        assert rem == 0
        assert derived.lines == _lines_at(fresh, f)
        assert _pieces_at(derived, 1) == _pieces_at(fresh, f)
        assert len(derived.crossings()[0]) == len(fresh.crossings()[0]) == 0
        assert [c.dtype for c in derived.crossings()] == [c.dtype for c in fresh.crossings()]
        assert derived.frame.point(derived.darkest()) == fresh.frame.point(fresh.darkest())
        _same_certificates(P, prefix, fresh_gs)


@pytest.mark.parametrize("n", [6, 8, 10])
def test_derived_columns_are_a_fresh_build_of_the_prefix_pieces(n):
    # the prefix takes its parent's columns at its pieces: the same bytes
    # as _piece_boxes and the blocked counts of those pieces, and the same
    # darkest point as a fresh analysis of the prefix, where every piece
    # blocks one guard and so is a top piece of darkest
    P = random_convex_polygon(random.Random(29 + n), n)
    full, _ = place_4n_minus_2(P)
    for g in sorted({plan(n, k).g for k in range(n + 1, 4 * n - 2)}):
        derived = darkness._prefix(P, full, g)._analysis
        boxes, blocked = derived._columns
        want = darkness._piece_boxes(derived.pieces)
        assert len(boxes) == len(want) == 10
        assert [(c.dtype, c.tobytes()) for c in boxes] == [(c.dtype, c.tobytes()) for c in want]
        assert blocked.dtype == np.int64 and blocked.tolist() == [1] * len(derived.pieces)
        fresh = darkness._Analysis(P, GuardSet(full.guards[:g]))
        assert derived.frame.point(derived.darkest()) == fresh.frame.point(fresh.darkest())
        assert derived.columns() is derived._columns


def test_an_uncertified_parent_gives_its_prefix_a_fresh_analysis(monkeypatch):
    # three collinear guards: a line of 3 members, max darkness 2
    collinear = GuardSet([Point2(1, 1), Point2(2, 2), Point2(3, 3), Point2(6, 1),
                          Point2(1, 6), Point2(7, 5)])
    assert max_darkness(SQUARE, collinear).darkness >= 2
    # lines of 2 members only, but rays that cross: max darkness 2 again
    crossing = GuardSet(distinct_interior_points(random.Random(5), SQUARE, 7))
    assert all(len(rec[3]) == 2 for rec in darkness._analysis(SQUARE, crossing).lines)
    assert len(crossing._analysis.crossings()[0])
    # no analysis yet, and an analysis of another region
    unread = GuardSet(list(construct(SQUARE, 13)))
    elsewhere = GuardSet(list(construct(SQUARE, 13)))
    max_darkness(ConvexPolygon(SQUARE.vertices), elsewhere)
    for full, g in ((collinear, 5), (crossing, 6), (unread, 10), (elsewhere, 10)):
        prefix, builds = _prefix_builds(monkeypatch, SQUARE, full, g)
        assert builds == 1
        assert prefix._analysis is not None and prefix._analysis.region is SQUARE
        _same_certificates(SQUARE, prefix, GuardSet(prefix.guards))


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
