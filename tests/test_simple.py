"""Comb polygons, triangulation coloring covers, and their placements."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from darkgallery import simple
from darkgallery.construct import ConstructionError
from darkgallery.darkness import DepthCertificate, max_darkness, min_depth
from darkgallery.geometry import ConvexPolygon, Point2, SimplePolygon
from darkgallery.sampling import depth_at_sample, sample_depth, visible
from darkgallery.simple import (
    MOUTH_LEVEL,
    TIP_LEVEL,
    comb_cover,
    fisk_cover,
    fisk_plan,
    make_comb,
    three_color,
    triangulate,
    _faces,
    _vertex_cone,
)

import oracles
from conftest import random_affine_map, random_star_polygon

L_HEXAGON = SimplePolygon(
    [Point2(0, 0), Point2(4, 0), Point2(4, 2), Point2(2, 2), Point2(2, 4), Point2(0, 4)])
QUAD = SimplePolygon([Point2(0, 0), Point2(4, 0), Point2(4, 4), Point2(0, 4)])


# --- combs -------------------------------------------------------------------

def test_combs_have_3s_vertices():
    for s in (2, 3, 5, 8):
        comb = make_comb(s)
        assert len(comb.polygon.vertices) == 3 * s
        assert comb.spike_count == s
        assert len(comb.spike_apertures) == s
    with pytest.raises(ValueError):
        make_comb(1)


def test_comb_shape():
    comb = make_comb(3)
    assert [comb.spike_tip(i) for i in range(3)] == [
        Point2(1, TIP_LEVEL), Point2(3, TIP_LEVEL), Point2(5, TIP_LEVEL)]
    assert list(comb.corridor().vertices) == [
        Point2(0, 0), Point2(6, 0), Point2(6, MOUTH_LEVEL), Point2(0, MOUTH_LEVEL)]
    # the two-spike comb keeps the count at 3s by sharpening the floor
    assert make_comb(2).corridor().vertices[1] == Point2(2, -2)


def test_comb_cover_counts_and_depth():
    comb = make_comb(3)
    gs = comb_cover(comb, 4)
    assert len(gs) == 12
    report = sample_depth(comb.polygon, gs, sampler=("grid", 24), target=4)
    assert report.min_sampled_depth >= 4
    assert not report.failing_samples


def test_comb_cover_two_spikes():
    comb = make_comb(2)
    gs = comb_cover(comb, 2)
    assert len(gs) == 4
    report = sample_depth(comb.polygon, gs, sampler=("grid", 16), target=2)
    assert report.min_sampled_depth >= 2
    with pytest.raises(ValueError):
        comb_cover(comb, 1)


def test_spike_tips_see_only_their_own_arc():
    comb = make_comb(3)
    gs = comb_cover(comb, 4)
    for i in range(3):
        tip = comb.spike_tip(i)
        lo, hi = comb.spike_apertures[i]
        own = {g for g in gs.guards if lo < g.x < hi}
        seen = {g for g in gs.guards if visible(comb.polygon, gs, g, tip)}
        assert len(own) == 4
        assert seen == own
        assert depth_at_sample(comb.polygon, gs, tip) == 4
    # a point deep in a spike, off the tip, still sees its whole arc
    deep = Point2(3, TIP_LEVEL - 1)
    assert depth_at_sample(comb.polygon, gs, deep) == 4


def test_staggering_is_what_keeps_dark_rays_apart():
    # with the height offsets disabled, mirror guards of different arcs
    # line up and corridor points collect 3+ blocked guards
    comb = make_comb(3)
    flat = oracles.flat_comb_guards(comb, 4)
    assert len(flat) == 12
    corridor = comb.corridor()
    assert max_darkness(corridor, flat).darkness > 2
    assert max_darkness(corridor, comb_cover(comb, 4)).darkness <= 2
    # on the two-spike comb the flat variant visibly drops below depth k
    comb2 = make_comb(2)
    flat2 = oracles.flat_comb_guards(comb2, 2)
    report = sample_depth(comb2.polygon, flat2, target=2)
    assert report.min_sampled_depth < 2
    assert report.failing_samples


@pytest.mark.parametrize("s, k", [(s, k) for s in range(2, 7) for k in range(2, 7)])
def test_comb_cover_certifies_depth_k_on_every_small_comb(s, k):
    # the gate is the corridor's exact depth; with s, k >= 4 the arcs
    # leave corridor points with four blocked guards, which a gate on
    # darkness <= 2 used to refuse though depth k*s - 4 >= k holds
    comb = make_comb(s)
    gs = comb_cover(comb, k)
    assert len(gs) == k * s
    assert min_depth(comb.corridor(), gs).min_depth >= k
    if (s, k) in ((4, 4), (5, 4)):
        assert sample_depth(comb.polygon, gs, target=k).failing_samples == []


def test_comb_cover_takes_its_first_placement():
    # make_comb(8) at k = 3 has darkness 3 at its first tilt; the
    # placement stands, with corridor depth 21
    comb = make_comb(8)
    gs = comb_cover(comb, 3)
    cert = min_depth(comb.corridor(), gs)
    assert (cert.max_darkness, cert.min_depth) == (3, 21)
    lift = Fraction(1, 16 * 64)
    assert gs.guards[3].y - gs.guards[0].y == lift + lift / 64


@pytest.mark.parametrize("short", [0, 1])
def test_comb_cover_gates_on_the_corridor_depth(short, monkeypatch):
    # a certificate of depth exactly k passes; one short of k raises,
    # carrying the certificate's witness
    comb, k = make_comb(3), 3
    certs = []

    def certify(region, guards):
        cert = min_depth(region, guards)
        certs.append(DepthCertificate(cert.g, cert.g - k + short, cert.witness))
        return certs[-1]

    monkeypatch.setattr(simple, "min_depth", certify)
    if not short:
        assert len(comb_cover(comb, k)) == 9
        return
    with pytest.raises(ConstructionError, match="corridor depth 2 < k") as info:
        comb_cover(comb, k)
    assert info.value.witness is certs[0].witness


def _lifted(guards, i, y):
    return [Point2(g.x, y) if j == i else g for j, g in enumerate(guards)]


def test_lines_below_mouths_matches_the_fraction_oracle():
    # the comb's own arcs keep every line under the ceiling; one guard
    # lifted towards y = 2 tips the lines through it over the edge
    verdicts = set()
    for s, k in ((2, 2), (3, 4), (5, 3)):
        comb = make_comb(s)
        width = Fraction(2 * s)
        arcs = list(comb_cover(comb, k).guards)
        flat = list(oracles.flat_comb_guards(comb, k).guards)
        scenes = [arcs, flat, arcs[::-1]]
        for i in (0, len(arcs) // 2, len(arcs) - 1):
            for y in (Fraction(3, 2), 2 - Fraction(1, 10 ** 6), Fraction(2), Fraction(9, 4)):
                scenes.append(_lifted(arcs, i, y))
        # a line through the ceiling's left end reaches mouth level
        scenes.append([Point2(1, Fraction(3, 2)), Point2(2, 1)])
        for guards in scenes:
            got = simple._lines_below_mouths(guards, width)
            assert got == oracles.lines_below_mouths_oracle(guards, width)
            verdicts.add(got)
    assert verdicts == {True, False}


# --- triangulation and coloring -----------------------------------------------

def test_quad_triangulates_with_one_diagonal():
    diagonals = triangulate(QUAD)
    assert len(diagonals) == 1
    colors = three_color(QUAD, diagonals)
    assert sorted(list(colors.values()).count(c) for c in (1, 2, 3)) == [1, 1, 2]


def test_triangulate_rejects_non_simple_input():
    with pytest.raises(TypeError):
        triangulate(ConvexPolygon([Point2(0, 0), Point2(4, 0), Point2(0, 4)]))


def test_l_hexagon_triangulation():
    diagonals = triangulate(L_HEXAGON)
    assert len(diagonals) == 3
    faces = _faces(6, diagonals)
    assert len(faces) == 4
    colors = three_color(L_HEXAGON, diagonals)
    for a, b, c in faces:
        assert {colors[a], colors[b], colors[c]} == {1, 2, 3}


def test_coloring_is_proper_on_random_star_polygons():
    rng = random.Random(11)
    for _ in range(5):
        n = rng.randint(6, 14)
        P = random_star_polygon(rng, n)
        diagonals = triangulate(P)
        assert len(diagonals) == n - 3
        colors = three_color(P, diagonals)
        for a, b, c in _faces(n, diagonals):
            assert {colors[a], colors[b], colors[c]} == {1, 2, 3}


# --- vertex cones ---------------------------------------------------------------

def test_convex_vertex_gets_its_edge_cone():
    cone = _vertex_cone(L_HEXAGON, 0)
    assert cone.apex == Point2(0, 0)
    assert {cone.dir1, cone.dir2} == {Point2(4, 0), Point2(0, 4)}
    assert cone.contains(Point2(1, 1))
    assert not cone.contains(Point2(-1, 0))


def test_reflex_vertex_gets_the_anticone():
    cone = _vertex_cone(L_HEXAGON, 3)
    assert cone.apex == Point2(2, 2)
    # both incident edges extended through the vertex
    assert {cone.dir1, cone.dir2} == {Point2(-2, 0), Point2(0, -2)}
    assert cone.contains(Point2(1, 1))
    assert not cone.contains(Point2(3, 3))


def _mapped(P, seed):
    """P under a seeded orientation-preserving rational affine map: its
    integer form has a scale > 1."""
    apply = random_affine_map(random.Random(seed))[0]
    return SimplePolygon([apply(v) for v in P.vertices])


SIMPLE_SCENES = (
    [pytest.param(make_comb(s).polygon, id="comb-%d" % s) for s in range(2, 9)]
    + [pytest.param(random_star_polygon(random.Random(n), n), id="star-%d" % n)
       for n in (10, 16, 24, 37, 60)]
    + [pytest.param(_mapped(make_comb(3).polygon, 5), id="comb-3-mapped"),
       pytest.param(_mapped(random_star_polygon(random.Random(3), 20), 7), id="star-20-mapped")]
)


@pytest.mark.parametrize("P", SIMPLE_SCENES)
def test_triangulation_plan_and_clearances_match_the_fraction_bodies(P):
    # triangulate, the vertex cones and _clearance2 decide on P.ints;
    # the oracles are their former bodies over Point2
    assert triangulate(P) == oracles.triangulate_oracle(P)
    plan = fisk_plan(P)
    diagonals, coloring, chosen, cones = oracles.fisk_plan_oracle(P)
    assert plan.triangulation == tuple(diagonals)
    assert plan.coloring == coloring
    assert plan.chosen_class == tuple(chosen)
    assert {i: (w.apex, w.dir1, w.dir2) for i, w in plan.cones.items()} == {
        i: (w.apex, w.dir1, w.dir2) for i, w in cones.items()}
    n = len(P.vertices)
    assert ([simple._clearance2(P, i) for i in range(n)]
            == [oracles.clearance2_oracle(P, i) for i in range(n)])


# --- the coloring cover ------------------------------------------------------------

def test_plan_chooses_at_most_a_third_of_the_vertices():
    rng = random.Random(11)
    for _ in range(4):
        n = rng.randint(6, 14)
        P = random_star_polygon(rng, n)
        plan = fisk_plan(P)
        assert len(plan.chosen_class) <= n // 3
        assert set(plan.cones) == set(plan.chosen_class)
        chosen_colors = {plan.coloring[i] for i in plan.chosen_class}
        assert len(chosen_colors) == 1


def test_fisk_cover_counts():
    plan = fisk_plan(L_HEXAGON)
    gs = fisk_cover(L_HEXAGON, 2)
    assert len(gs) == 4 * len(plan.chosen_class)
    report = sample_depth(L_HEXAGON, gs, sampler=("grid", 16), target=2)
    assert report.min_sampled_depth >= 2


def test_fisk_cover_on_a_comb():
    comb = make_comb(3)
    plan = fisk_plan(comb.polygon)
    gs = fisk_cover(comb.polygon, 2)
    assert len(gs) == 4 * len(plan.chosen_class)
    report = sample_depth(comb.polygon, gs, sampler=("grid", 12), target=2)
    assert report.min_sampled_depth >= 2


def test_fisk_cover_convex_degenerate():
    gs = fisk_cover(QUAD, 1)
    assert len(gs) == 3  # one chosen vertex, k+2 guards
    report = sample_depth(QUAD, gs, sampler=("grid", 8), target=1)
    assert report.min_sampled_depth >= 1


def test_fisk_cover_random_star_polygons():
    rng = random.Random(17)
    for _ in range(3):
        n = rng.randint(6, 12)
        P = random_star_polygon(rng, n)
        plan = fisk_plan(P)
        gs = fisk_cover(P, 1)
        assert len(gs) == 3 * len(plan.chosen_class)
        report = sample_depth(P, gs, target=1)
        assert report.min_sampled_depth >= 1


def test_fisk_cover_input_checks():
    with pytest.raises(ValueError):
        fisk_cover(QUAD, 0)
    with pytest.raises(TypeError):
        fisk_cover(ConvexPolygon([Point2(0, 0), Point2(4, 0), Point2(0, 4)]), 1)


class _FractionPlacer(oracles.StreamPlacerOracle):
    """The Fraction placer behind the integer interface: (X, Y, W) in
    the scale of the polygon goes back to the candidate point."""

    def __init__(self, scale):
        super().__init__()
        self.scale = scale

    def try_add(self, g):
        X, Y, W = g
        d = W * self.scale
        return super().try_add(Point2(Fraction(X, d), Fraction(Y, d)))


@pytest.mark.parametrize("P, k", [
    pytest.param(L_HEXAGON, 2, id="L-hexagon-k2"),
    pytest.param(L_HEXAGON, 3, id="L-hexagon-k3"),
    pytest.param(QUAD, 1, id="quad-k1"),
    pytest.param(make_comb(3).polygon, 2, id="comb-s3-k2"),
    # the shared placer refuses 4 of 24 candidates here
    pytest.param(make_comb(8).polygon, 2, id="comb-s8-k2"),
    pytest.param(random_star_polygon(random.Random(17), 12), 1, id="star-12-k1"),
    pytest.param(random_star_polygon(random.Random(17), 12), 2, id="star-12-k2"),
])
def test_fisk_cover_matches_the_fraction_placer(P, k, monkeypatch):
    got = fisk_cover(P, k).guards
    monkeypatch.setattr(simple, "_StreamPlacer", lambda: _FractionPlacer(P.scale))
    monkeypatch.setattr(simple, "_place_cluster", oracles.place_cluster_oracle)
    assert list(got) == list(fisk_cover(P, k).guards)


@pytest.mark.parametrize("P", [p for p in SIMPLE_SCENES if len(p.values[0]) <= 24])
def test_place_cluster_matches_the_fraction_body(P):
    # every chosen vertex's arc, at the first scale and two halvings,
    # through one shared placer on each side, which refuses some
    # candidates
    plan = fisk_plan(P)
    mine, theirs = simple._StreamPlacer(), simple._StreamPlacer()
    for idx in plan.chosen_class:
        room = simple._clearance2(P, idx)
        for scale in (Fraction(1, 4), Fraction(1, 16)):
            got = simple._place_cluster(P, plan.cones[idx], room, 4, scale, mine)
            want = oracles.place_cluster_oracle(P, plan.cones[idx], room, 4, scale, theirs)
            assert got == want
    assert mine.points == theirs.points
