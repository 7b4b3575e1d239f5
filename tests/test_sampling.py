"""Exact visibility predicates and sampled depth reports."""

from __future__ import annotations

import functools
import json
import random
import re
from fractions import Fraction
from itertools import combinations
from math import gcd, inf

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from darkgallery import cli, geometry, sampling
from darkgallery._filter import _nearest
from darkgallery.darkness import GuardSet, darkness_at
from darkgallery.documents import CertificateDocument, point_to_json, region_to_dict
from darkgallery.geometry import (
    ConvexPolygon,
    Point2,
    SimplePolygon,
    _Frame,
    _locate,
)
from darkgallery.sampling import (
    SampleReport,
    _Samples,
    _between,
    _contains_mask,
    _corners,
    _depths,
    _random_points,
    _wall_free,
    depth_at_sample,
    sample_depth,
    visible,
)
from darkgallery.simple import fisk_cover, make_comb, comb_cover

import oracles
from oracles import strictly_between
from conftest import distinct_interior_points, random_convex_polygon, random_star_polygon

L_HEXAGON = SimplePolygon(
    [Point2(0, 0), Point2(4, 0), Point2(4, 2), Point2(2, 2), Point2(2, 4), Point2(0, 4)])
BOX = ConvexPolygon([Point2(0, 0), Point2(10, 0), Point2(10, 10), Point2(0, 10)])


# --- the visibility predicate ---------------------------------------------------

def test_a_guard_blocks_the_view_past_it():
    guards = [Point2(2, 5), Point2(4, 5)]
    assert not visible(BOX, guards, Point2(2, 5), Point2(6, 5))
    assert visible(BOX, guards, Point2(4, 5), Point2(6, 5))
    assert visible(BOX, guards, Point2(2, 5), Point2(3, 5))


def test_no_guard_sees_into_a_foreign_spike():
    comb = make_comb(3)
    gs = comb_cover(comb, 4)
    under_first = [g for g in gs.guards if g.x < 2]
    assert under_first
    assert not visible(comb.polygon, gs, under_first[0], comb.spike_tip(1))
    assert visible(comb.polygon, gs, under_first[0], comb.spike_tip(0))


def test_walls_block_around_the_reflex_corner():
    q = Point2(1, Fraction(7, 2))
    p = Point2(Fraction(7, 2), 1)
    assert not visible(L_HEXAGON, [q], q, p)


def test_grazing_the_reflex_corner_counts_as_visible():
    # the open segment touches the corner vertex but stays in closed P
    q, p = Point2(1, 3), Point2(3, 1)
    assert visible(L_HEXAGON, [q], q, p)


def test_visible_is_symmetric_for_guard_pairs():
    rng = random.Random(61)
    for _ in range(5):
        P = random_convex_polygon(rng, 4)
        guards = distinct_interior_points(rng, P, 5)
        guards.append(guards[0] + (guards[1] - guards[0]) * Fraction(1, 2))
        gs = GuardSet(guards)
        for a in gs.guards:
            for b in gs.guards:
                assert visible(P, gs, a, b) == visible(P, gs, b, a)


# --- sampled depth reports --------------------------------------------------------

def test_triangle_vertex_guards_sample_at_full_depth():
    T = ConvexPolygon([Point2(0, 0), Point2(8, 0), Point2(4, 8)])
    report = sample_depth(T, T.vertices, sampler=("grid", 10))
    assert report.min_sampled_depth == 3
    assert all(depth == 3 for _, depth in report.samples)
    assert report.failing_samples == []


def test_builtin_samples_cover_the_suspicious_points():
    # two dark rays cross at (5,5); the scan must find it by itself
    guards = [Point2(2, 5), Point2(4, 5), Point2(5, 2), Point2(5, 4)]
    report = sample_depth(BOX, guards)
    depths = dict(report.samples)
    for v in BOX.vertices:
        assert depths[v] == 4
    for g in guards:
        assert g in depths
    assert depths[Point2(5, 5)] == 2
    assert report.min_sampled_depth == 2


def test_reports_are_deterministic():
    guards = [Point2(2, 5), Point2(4, 5), Point2(5, 2), Point2(5, 4)]
    a = sample_depth(BOX, guards, sampler=("random", 7, 50))
    b = sample_depth(BOX, guards, sampler=("random", 7, 50))
    assert a.samples == b.samples


def test_target_collects_failing_samples():
    guards = [Point2(2, 5), Point2(4, 5), Point2(5, 2), Point2(5, 4)]
    report = sample_depth(BOX, guards, target=3)
    assert Point2(5, 5) in report.failing_samples
    assert all(dict(report.samples)[p] < 3 for p in report.failing_samples)


def test_fisk_cover_samples_deep_enough():
    gs = fisk_cover(L_HEXAGON, 3)
    report = sample_depth(L_HEXAGON, gs, sampler=("grid", 12), target=3)
    assert report.min_sampled_depth >= 3


def test_sampler_spec_validation():
    T = ConvexPolygon([Point2(0, 0), Point2(8, 0), Point2(4, 8)])
    with pytest.raises(ValueError):
        sample_depth(T, T.vertices, sampler=("points", [Point2(100, 100)]))
    with pytest.raises(ValueError):
        sample_depth(T, T.vertices, sampler=("grid", 0))
    with pytest.raises(ValueError):
        sample_depth(T, T.vertices, sampler="everywhere")
    with pytest.raises(ValueError):
        sample_depth(T, [Point2(100, 100)])


@pytest.mark.parametrize("sampler", [
    ("grid",), ("grid", 3, 4), ("random", 1), ("random", 1, 2, 3), ("points",),
    ("points", [], 1), "everywhere", ("lines", 3), (),
])
def test_sampler_specs_of_the_wrong_shape_get_the_documented_message(sampler):
    T = ConvexPolygon([Point2(0, 0), Point2(8, 0), Point2(4, 8)])
    with pytest.raises(ValueError, match=r"^sampler must be None, \('grid', resolution\)"):
        sample_depth(T, T.vertices, sampler=sampler)


@pytest.mark.parametrize("point", [(1, 1, 1), (1,), 5, None])
def test_a_sample_point_of_the_wrong_shape_is_named(point):
    T = ConvexPolygon([Point2(0, 0), Point2(8, 0), Point2(4, 8)])
    with pytest.raises(ValueError, match=r"^sample point %s is not a Point2" % re.escape(repr(point))):
        sample_depth(T, T.vertices, sampler=("points", [Point2(4, 1), point]))
    assert len(sample_depth(T, T.vertices, sampler=("points", [Point2(4, 1), (4, 2)])).samples) > 3


@pytest.mark.parametrize("P", [
    ConvexPolygon([Point2(0, 0), Point2(4, 0), Point2(4, 4), Point2(0, 4)]),
    SimplePolygon([Point2(0, 0), Point2(4, 0), Point2(4, 4), Point2(0, 4)]),
], ids=["convex", "simple"])
def test_depth_at_sample_refuses_guards_and_points_outside(P):
    # with sample_depth's messages: the guard check of its scan and the
    # membership check of its points sampler; the boundary is inside
    with pytest.raises(ValueError, match=r"^guard Point2\(9, 9\) lies outside the polygon$"):
        depth_at_sample(P, [Point2(9, 9), Point2(1, 1)], Point2(2, 2))
    with pytest.raises(ValueError, match=r"^guard Point2\(9, 9\) lies outside the polygon$"):
        sample_depth(P, [Point2(9, 9), Point2(1, 1)])
    with pytest.raises(ValueError, match=r"^sample point Point2\(9, 9\) lies outside the polygon$"):
        depth_at_sample(P, [Point2(1, 1)], Point2(9, 9))
    with pytest.raises(ValueError, match=r"^sample point Point2\(9, 9\) lies outside the polygon$"):
        sample_depth(P, [Point2(1, 1)], sampler=("points", [Point2(9, 9)]))
    with pytest.raises(ValueError, match=r"^sample point Point2\(5, 2\) lies outside the polygon$"):
        depth_at_sample(P, [Point2(1, 1)], Point2(5, 2))
    assert depth_at_sample(P, [Point2(1, 1), Point2(4, 4)], Point2(4, 2)) == 2
    assert depth_at_sample(P, [Point2(0, 0), Point2(1, 1)], Point2(2, 2)) == 1


@pytest.mark.parametrize("P", [
    ConvexPolygon([Point2(0, 0), Point2(4, 0), Point2(4, 4), Point2(0, 4)]),
    SimplePolygon([Point2(0, 0), Point2(4, 0), Point2(4, 4), Point2(0, 4)]),
], ids=["convex", "simple"])
def test_visible_refuses_guards_outside(P):
    # with the guard check of sample_depth's scan, for the guards and for
    # q; a p outside is simply not seen, and the boundary is inside
    with pytest.raises(ValueError, match=r"^guard Point2\(9, 9\) lies outside the polygon$"):
        visible(P, [Point2(9, 9)], Point2(1, 1), Point2(2, 2))
    with pytest.raises(ValueError, match=r"^guard Point2\(9, 9\) lies outside the polygon$"):
        visible(P, [Point2(1, 1)], Point2(9, 9), Point2(2, 2))
    assert not visible(P, [Point2(1, 1)], Point2(1, 1), Point2(9, 9))
    assert visible(P, [Point2(4, 4)], Point2(0, 0), Point2(2, 2))
    assert not visible(P, [Point2(1, 1)], Point2(0, 0), Point2(2, 2))


def test_reports_are_immutable_and_need_samples():
    report = sample_depth(BOX, [Point2(5, 5)])
    with pytest.raises(AttributeError):
        report.min_sampled_depth = 0
    with pytest.raises(ValueError):
        SampleReport([])


# --- cross-module agreement on convex polygons --------------------------------------

def test_sampled_depth_equals_exact_depth_on_convex_polygons():
    rng = random.Random(43)
    for trial in range(4):
        P = random_convex_polygon(rng, rng.randint(3, 5))
        guards = distinct_interior_points(rng, P, 5)
        if trial % 2:
            guards.append(guards[0] + (guards[1] - guards[0]) * Fraction(1, 3))
        g = len(guards)
        report = sample_depth(P, guards, sampler=("random", trial, 30))
        for p, depth in report.samples:
            assert depth == g - darkness_at(P, guards, p).darkness
            assert depth == g - oracles.darkness_oracle(guards, p)


# --- incremental accounting -----------------------------------------------------------

def added_guard_accounting(P, S, q, pts):
    Sq = list(S) + [q]
    for p in pts:
        old = depth_at_sample(P, S, p)
        new = depth_at_sample(P, Sq, p)
        newly_blocked = sum(
            1 for h in S if visible(P, S, h, p) and not visible(P, Sq, h, p))
        gain = 1 if visible(P, Sq, q, p) else 0
        assert new == old - newly_blocked + gain


def test_adding_a_guard_accounts_exactly_convex():
    rng = random.Random(13)
    for trial in range(3):
        P = random_convex_polygon(rng, 4)
        pts_all = distinct_interior_points(rng, P, 7)
        S, q = pts_all[:-1], pts_all[-1]
        if trial % 2:
            q = S[0] + (S[1] - S[0]) * Fraction(1, 3)
        samples = [p for p, _ in sample_depth(P, S, sampler=("random", trial, 20)).samples]
        added_guard_accounting(P, S, q, samples)


def test_adding_a_guard_accounts_exactly_with_walls():
    S = [Point2(1, 1), Point2(3, 1), Point2(2, 1)]
    samples = [p for p, _ in sample_depth(L_HEXAGON, S, sampler=("grid", 6)).samples]
    added_guard_accounting(L_HEXAGON, S, Point2(1, 3), samples)


# --- the float-prefiltered batch equals the exact predicates ------------------------

def batch_depths(P, gs, pts):
    """_depths on the Point2 samples pts, each converted once by the frame."""
    frame = _Frame(P, gs.guards)
    return _depths(frame, _Samples.exact(frame, [frame.sample(p) for p in pts]))


def batch_contains(P, pts):
    """_contains_mask on the Point2 samples pts, through a frame of P."""
    frame = _Frame(P, ())
    return _contains_mask(frame, _Samples.exact(frame, [frame.sample(p) for p in pts])).tolist()


def test_fast_depths_match_the_loop_on_convex_scenes():
    rng = random.Random(5)
    P = random_convex_polygon(rng, 6)
    gs = GuardSet(distinct_interior_points(rng, P, 8))
    pts = [p for p, _ in sample_depth(P, gs, sampler=("random", 3, 300)).samples]
    exact = [oracles.depth_at_sample_oracle(P, gs.guards, p) for p in pts]
    assert batch_depths(P, gs, pts) == exact
    assert [depth_at_sample(P, gs, p) for p in pts] == exact


def test_fast_depths_match_the_loop_with_walls():
    gs = GuardSet([Point2(1, 1), Point2(3, 1), Point2(1, 3),
                   Point2(Fraction(1, 2), Fraction(1, 2)), Point2(2, 1)])
    pts = [p for p, _ in sample_depth(L_HEXAGON, gs, sampler=("random", 9, 900)).samples]
    exact = [oracles.depth_at_sample_oracle(L_HEXAGON, gs.guards, p) for p in pts]
    assert batch_depths(L_HEXAGON, gs, pts) == exact
    assert [depth_at_sample(L_HEXAGON, gs, p) for p in pts] == exact


def test_fast_depths_survive_adversarial_coordinates():
    # near-zero coordinates and samples right on guard lines push every
    # pair into the uncertain band; the exact fallback must take over
    tiny = Fraction(1, 10 ** 40)
    T = ConvexPolygon([Point2(-5, -5), Point2(9, -5), Point2(2, 9)])
    gs = GuardSet([Point2(tiny, 0), Point2(1, 1), Point2(2, tiny)])
    pts = [Point2(Fraction(i, 7), Fraction(j, 11))
           for i in range(-14, 15) for j in range(-14, 15)]
    pts = [p for p in pts if T.contains(p)]
    exact = [oracles.depth_at_sample_oracle(T, gs.guards, p) for p in pts]
    assert batch_depths(T, gs, pts) == exact
    assert [depth_at_sample(T, gs, p) for p in pts] == exact
    gs2 = GuardSet([Point2(0, 0), Point2(1, 0), Point2(3, 0), Point2(1, 2), Point2(2, 3)])
    pts2 = [Point2(Fraction(i, 8), Fraction(j, 8)) for i in range(-39, 65) for j in range(0, 65)]
    pts2 = [p for p in pts2 if T.contains(p)]
    exact2 = [oracles.depth_at_sample_oracle(T, gs2.guards, p) for p in pts2]
    assert batch_depths(T, gs2, pts2) == exact2
    assert [depth_at_sample(T, gs2, p) for p in pts2] == exact2


def _probe_points(P):
    """Points where float membership is hard: every vertex, points on
    every edge, points level with each vertex and horizontal edge, and
    points just inside and just outside all of them."""
    xs = sorted({v.x for v in P.vertices})
    ys = sorted({v.y for v in P.vertices})
    near = [Fraction(0), Fraction(1, 1000), Fraction(1, 10 ** 20)]
    near += [-d for d in near[1:]]
    cols = {x + d for x in xs + [xs[0] - 1, xs[-1] + 1] for d in near}
    cols |= {(a + b) / 2 for a, b in zip(xs, xs[1:])}
    rows = {y + d for y in ys for d in near}
    rows |= {(a + b) / 2 for a, b in zip(ys, ys[1:])}
    pts = [Point2(x, y) for x in sorted(cols) for y in sorted(rows)]
    for a, b in P.edges():
        e = b - a
        for t in (Fraction(1, 3), Fraction(1, 2)):
            on = a + e * t
            pts += [on] + [Point2(on.x - d * e.y, on.y + d * e.x) for d in near[1:]]
    return pts


@pytest.mark.parametrize("P", [L_HEXAGON, make_comb(3).polygon], ids=["L-hexagon", "comb-s3"])
def test_contains_mask_matches_contains_point_by_point(P):
    pts = _probe_points(P)
    truth = [oracles.simple_where_oracle(P, p) != "exterior" for p in pts]
    assert True in truth and False in truth
    assert [P.contains(p) for p in pts] == truth
    assert batch_contains(P, pts) == truth
    assert batch_contains(P, []) == []


def test_contains_mask_reads_the_interval_ends():
    # samples on the L-hexagon's floor and at its vertices, each given
    # with its y column moved down within its error, as a candidate built
    # from a parameter may be: only the ends of its interval show that it
    # may lie on the boundary, which is inside
    frame = _Frame(L_HEXAGON, ())
    pts = [frame.sample(Point2(Fraction(k, 4), 0)) for k in range(1, 16)] + list(_corners(frame))
    samples = _Samples.exact(frame, pts)
    delta = 2.0 ** -40 * np.maximum(1.0, np.abs(samples.py))
    samples.py = samples.py - delta
    samples.err = 2 * delta
    assert _contains_mask(frame, samples).all()
    floor = samples.take(range(15))
    floor.err = np.zeros(15)
    assert not _contains_mask(frame, floor).any()


def _scaled(P, guards, pts, factor):
    def up(p):
        return Point2(p.x * factor, p.y * factor)
    P = type(P)([up(v) for v in P.vertices])
    return P, GuardSet([up(g) for g in guards]), [up(p) for p in pts]


def _batch_scenes():
    comb = make_comb(3)
    walls = [Point2(1, 1), Point2(3, 1), Point2(1, 3), Point2(Fraction(1, 2), Fraction(1, 2)),
             Point2(2, 1)]
    triangle = ConvexPolygon([Point2(0, 0), Point2(8, 0), Point2(4, 8)])
    inner = [Point2(2, 1), Point2(4, 1), Point2(6, 1), Point2(4, 3), Point2(4, 5)]
    return [("L-hexagon", L_HEXAGON, walls), ("comb-s3-k2", comb.polygon, comb_cover(comb, 2).guards),
            ("triangle", triangle, inner)]


@pytest.mark.parametrize("scene", _batch_scenes(), ids=lambda s: s[0])
@pytest.mark.parametrize("factor", [1, 2 ** 520, 2 ** 1100], ids=["1", "2^520", "2^1100"])
def test_batch_matches_the_exact_predicates_at_every_scale(scene, factor):
    # 2^520: coordinates fit a float but their products overflow; 2^1100:
    # the coordinates themselves round to inf, and differences to NaN.
    # Either way every float verdict must defer to the exact predicates.
    _, P, guards = scene
    report = sample_depth(P, guards, sampler=("grid", 4))
    pts = [p for p, _ in report.samples]
    Pb, gsb, ptsb = _scaled(P, guards, pts, factor)
    exact = [oracles.depth_at_sample_oracle(Pb, gsb.guards, p) for p in ptsb]
    assert exact == [d for _, d in report.samples]
    assert [depth_at_sample(Pb, gsb, p) for p in ptsb] == exact
    assert min(exact) < len(guards)  # some sample loses a guard to blocking
    assert batch_depths(Pb, gsb, ptsb) == exact
    assert [batch_depths(Pb, gsb, [p]) for p in ptsb] == [[d] for d in exact]
    _, _, probes = _scaled(P, guards, _probe_points(P), factor)
    inside = [oracles.simple_where_oracle(Pb, p) != "exterior" for p in probes]
    assert [Pb.contains(p) for p in probes] == inside
    assert batch_contains(Pb, probes) == inside
    assert [batch_contains(Pb, [p]) for p in probes[::7]] == [[c] for c in inside[::7]]


def test_an_overflowing_product_defers_to_the_exact_test():
    # h lies exactly between q and p, so it blocks q.  Every coordinate is
    # a finite float below 2^512, so M^2 is finite, but one product of the
    # float collinearity value of (q, h, p) rounds to inf (a search found
    # these coordinates and t = 3/11).  Only a margin made infinite by the
    # overflow bound keeps that "certain" inf from unblocking q.  A frame
    # this large divides its float columns by a power of two (unit), so
    # the batch forms no inf here and must still find the blocker.
    C = 2 ** 512 - 2 ** 459
    q, p = Point2(-C, -16513198633691819 * 2 ** 458), Point2(C, 16513198633691819 * 2 ** 458)
    h = q + (p - q) * Fraction(3, 11)
    square = ConvexPolygon([Point2(-C, -C), Point2(C, -C), Point2(C, C), Point2(-C, C)])
    gs = GuardSet([q, h])
    assert sampling._margin(np.array([float(C)])) == inf
    frame = _Frame(square, gs.guards)
    assert frame.unit > frame.scale
    assert depth_at_sample(square, gs, p) == 1
    exact = [oracles.depth_at_sample_oracle(square, gs.guards, s) for s in (p, q, h)]
    assert batch_depths(square, gs, [p, q, h]) == exact
    assert [depth_at_sample(square, gs, s) for s in (p, q, h)] == exact


# --- float-keyed deduplication and the order test before _between -------------------

BIG = 2 ** 60
TINY = 2 ** 1100
DISTINCT_CASES = {
    # one point in several representations, among distinct points, one
    # of them level with it in x
    "multiples": [(3, 5, 7), (1, 1, 1), (6, 10, 14), (-3, 5, 7), (300, 500, 700), (2, 2, 2),
                  (0, 0, 1), (3, 6, 7), (0, 0, 9)],
    # adjacent rationals that round to one float pair
    "one-float-pair": [(3 * BIG + 1, 3 * BIG, 3), (BIG, BIG, 1), (3 * BIG + 2, 3 * BIG - 1, 3),
                       (BIG + 1, BIG, 1), (2 * BIG + 2, 2 * BIG, 2), (BIG, BIG + 1, 1)],
    # points on either side of zero closer than the smallest float
    "signed-zero": [(0, 0, 1), (-1, 1, TINY), (1, -1, TINY), (0, 0, 7), (-2, 2, 2 * TINY),
                    (1, 0, TINY)],
    # points past the float range
    "infinite": [(TINY, -TINY, 1), (TINY + 1, -TINY, 1), (2 * TINY, -2 * TINY, 2), (-TINY, TINY, 1),
                 (TINY, -TINY - 1, 1), (-2 * TINY, 2 * TINY, 2)],
}


@pytest.mark.parametrize("case", sorted(DISTINCT_CASES))
def test_distinct_keeps_the_first_of_each_point(case, monkeypatch):
    # the float-keyed deduplication keeps what the gcd key of every
    # sample kept, building a key only for samples that share both floats
    samples = DISTINCT_CASES[case]
    # a frame of unit 1: the columns are X / W correctly rounded
    batch = _Samples.exact(_Frame(None, ()), samples)
    px = np.array([_nearest(X, W) for X, _, W in samples])
    py = np.array([_nearest(Y, W) for _, Y, W in samples])
    assert px.tobytes() == batch.px.tobytes() and py.tobytes() == batch.py.tobytes()
    pairs = list(zip(px.tolist(), py.tolist()))
    keys = []
    monkeypatch.setattr(sampling, "gcd", lambda *a: keys.append(a) or gcd(*a))
    for order in (slice(None), slice(None, None, -1)):
        keys.clear()
        got = sampling._distinct(batch.take(range(len(samples))[order]))
        assert got == oracles.distinct_oracle(samples[order])
        assert len(keys) == sum(pairs.count(p) > 1 for p in pairs)
    assert len(got) < len(samples)
    if case == "one-float-pair":
        assert len(set(pairs)) == 1
    if case == "signed-zero":
        assert set(np.signbit(px).tolist()) == set(np.signbit(py).tolist()) == {True, False}
        assert not px.any() and not py.any()
    if case == "infinite":
        assert np.isinf(px).all() and np.isinf(py).all()


def _order_triples(rng, base):
    """(q, h, s) triples of integer points q and h and homogeneous samples
    s near base, s - q a multiple of a step of 1 to 2^50 times a primitive
    direction (a, b): h exactly on the line behind q, between q and s,
    at s, one step past s and one primitive (a, b) past s, each also
    moved one unit off the line."""
    out = []
    for _ in range(300):
        q = (base + rng.randrange(-2 ** 20, 2 ** 20), base + rng.randrange(-2 ** 20, 2 ** 20))
        a, b = rng.choice([(1, 0), (0, 1), (1, 1), (2, -1), (3, 5), (-7, 4)])
        step = 2 ** rng.randrange(51)
        m = rng.randrange(2, 9)
        W = rng.choice([1, 1, 3])
        s = (q[0] * W + m * step * a, q[1] * W + m * step * b, W)
        on = [(q[0] + k * step * a, q[1] + k * step * b) for k in (-m, -1, 1, m - 1, m, m + 1)]
        if W == 1:
            on.append((s[0] + a, s[1] + b))
        for h in on:
            for ox, oy in ((0, 0), (1, 0), (0, -1)):
                out.append((q, (h[0] + ox, h[1] + oy), s))
    return out


@pytest.mark.parametrize("base", [2 ** 53, 2 ** 60], ids=["2^53", "2^60"])
def test_the_order_test_never_rules_out_a_guard_between(base):
    # wherever h is strictly between q and s, neither "behind q" nor
    # "past s" holds in floats, with the margin of the triple's own
    # largest coordinate
    triples = _order_triples(random.Random(base + 26), base)
    qx, qy, hx, hy, sx, sy = (np.array(c) for c in zip(*(
        (float(q[0]), float(q[1]), float(h[0]), float(h[1]),
         _nearest(s[0], s[2]), _nearest(s[1], s[2])) for q, h, s in triples)))
    cert = np.array([sampling._margin(np.array(c)) for c in zip(qx, qy, hx, hy, sx, sy)])
    off = sampling._off_segment(hx, hy, qx, qy, sx, sy, cert)
    between = [_between(h, q, s) for q, h, s in triples]
    assert between == [strictly_between(Point2(*q), Point2(*h), Point2(Fraction(s[0], s[2]),
                                                                      Fraction(s[1], s[2])))
                       for q, h, s in triples]
    assert not (off & np.array(between)).any()
    assert 0 < sum(between) < len(triples) and 0 < off.sum() < len(triples) - sum(between)


# --- the integer kernel equals the Fraction oracles -----------------------------------

def _kernel_verdicts(P, gs, samples):
    """Check every kernel predicate on every (guard, sample) pair against
    the oracles; return the verdicts seen, to show which cases ran."""
    frame = _Frame(P, gs.guards)
    seen = set()
    inner, inner_depths = [], []
    for p in samples:
        s = frame.sample(p)
        where = oracles.simple_where_oracle(P, p)
        assert _locate(frame.walls, *s) == where
        assert P.where(p) == where
        seen.add(where)
        depth = 0
        for q, qi in zip(gs.guards, frame.ints):
            inside = oracles.segment_inside_oracle(P, q, p)
            assert _wall_free(frame.walls, qi, s) == inside
            seen.add(("inside", inside))
            blocked = False
            for h, hi in zip(gs.guards, frame.ints):
                between = h != q and h != p and strictly_between(q, h, p)
                assert _between(hi, qi, s) == between
                seen.add(("between", between))
                blocked |= between
            # visible_oracle, from the verdicts above
            assert visible(P, gs, q, p) == (inside and not blocked)
            depth += inside and not blocked
        if where == "exterior":
            # the one-sample kernel refuses a point outside, as sample_depth does
            with pytest.raises(ValueError, match=r"^sample point .* lies outside the polygon$"):
                depth_at_sample(P, gs, p)
        else:
            assert depth_at_sample(P, gs, p) == depth
            inner.append(p)
            inner_depths.append(depth)
    assert batch_depths(P, gs, inner) == inner_depths
    return seen


def _kernel_scenes():
    """(name, polygon, guards, extra samples): samples at every vertex and
    guard come on top.  The L-hexagon has a guard exactly between two
    others, guards on a wall and at a vertex, sight lines grazing the
    reflex corner (2, 2) and running along walls, and samples 3^-40 off
    vertices and edges; the comb adds sight lines through each reflex
    corner of a spike mouth."""
    tiny = Fraction(1, 3 ** 40)
    walls = [Point2(1, 1), Point2(3, 1), Point2(2, 1), Point2(1, 3), Point2(1, 0),
             Point2(0, 0), Point2(4, Fraction(1, 2)), Point2(Fraction(1, 2), Fraction(1, 2))]
    l_extra = [Point2(3, 0), Point2(2, 0), Point2(0, 2), Point2(3, 3), Point2(5, 1),
               Point2(2 - tiny, 2 - tiny), Point2(2 + tiny, 2 + tiny), Point2(1 + tiny, 1),
               Point2(4, 1 + tiny), Point2(-tiny, 2), Point2(3, 2), Point2(2, 3),
               Point2(Fraction(7, 2), 1), Point2(1, Fraction(7, 2))]
    for a, b in L_HEXAGON.edges():
        l_extra += [a + (b - a) * Fraction(1, 3), a + (b - a) * (1 - tiny)]
    comb = make_comb(3)
    cover = comb_cover(comb, 2).guards
    reflex = [v for v in comb.polygon.vertices if v.y == 2 and 0 < v.x < 6]
    c_extra = [q + (r - q) * t for q in cover[::2] for r in reflex for t in (2, Fraction(3, 2))]
    c_extra += [comb.spike_tip(i) for i in range(3)]
    c_extra += [q + (h - q) * 2 for q, h in zip(cover, cover[1:])]
    triangle = ConvexPolygon([Point2(0, 0), Point2(8, 0), Point2(4, 8)])
    inner = [Point2(2, 1), Point2(4, 1), Point2(6, 1), Point2(4, 3), Point2(4, 0)]
    t_extra = [Point2(8, 1), Point2(4, 8), Point2(5, 1), Point2(1 + tiny, 1)]
    return [("L-hexagon", L_HEXAGON, walls, l_extra),
            ("comb-s3-k2", comb.polygon, cover, c_extra),
            ("triangle", triangle, inner, t_extra)]


@pytest.mark.parametrize("scene", _kernel_scenes(), ids=lambda s: s[0])
@pytest.mark.parametrize("factor", [1, 2 ** 520, 2 ** 1100], ids=["1", "2^520", "2^1100"])
def test_integer_kernel_matches_the_fraction_oracles(scene, factor):
    _, P, guards, extra = scene
    samples = list(P.vertices) + list(guards) + extra
    P, gs, samples = _scaled(P, guards, samples, factor)
    seen = _kernel_verdicts(P, gs, samples)
    assert {"interior", "boundary", "exterior", ("inside", True), ("inside", False),
            ("between", True), ("between", False)} <= seen


@st.composite
def star_scenes(draw):
    """A star scene (star_parts) scaled by 1, 3^-40, 2^520 or 2^1100."""
    P, guards, samples = draw(star_parts())
    factor = draw(st.sampled_from((1, Fraction(1, 3 ** 40), 2 ** 520, 2 ** 1100)))
    return _scaled(P, guards, samples, factor)


@st.composite
def star_parts(draw):
    """(polygon, guards, samples): a random star polygon, guards among its
    vertices, edge points, chords between second neighbours and the
    origin (plus, sometimes, a guard exactly between two others), and
    samples at all of those."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    P = random_star_polygon(rng, draw(st.integers(4, 9)), size=draw(st.sampled_from((6, 60))))
    vs = P.vertices
    cands = list(vs) + [Point2(0, 0)]
    for a, b in P.edges():
        cands += [a + (b - a) * Fraction(1, 2), a + (b - a) * Fraction(1, 3)]
    cands += [a + (b - a) * Fraction(1, 2) for a, b in zip(vs, vs[2:] + vs[:2])]
    inner = [p for p in dict.fromkeys(cands) if oracles.simple_where_oracle(P, p) != "exterior"]
    guards = draw(st.lists(st.sampled_from(inner), min_size=1, max_size=4, unique=True))
    if len(guards) >= 2 and draw(st.booleans()):
        mid = guards[0] + (guards[1] - guards[0]) * Fraction(1, 2)
        if mid not in guards and oracles.simple_where_oracle(P, mid) != "exterior":
            guards.append(mid)
    return P, guards, list(dict.fromkeys(cands + guards))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(star_scenes())
def test_integer_kernel_matches_the_oracles_on_star_polygons(scene):
    P, gs, samples = scene
    _kernel_verdicts(P, gs, samples)


# --- the integer sample path equals the former Fraction glue -------------------------

REPORT_SCENES = ["L-hexagon", "comb-s3-k2", "triangle", "box-crossing", "comb-s3-k4",
                 "comb-s2-flat", "fisk-L-k2", "fisk-quad-k1", "fisk-star-k1"]


@functools.lru_cache(maxsize=None)
def report_scene(name):
    """(polygon, guards) of the sampled scenes of this file and of
    test_simple.py, by name."""
    batch = {n: (P, guards) for n, P, guards in _batch_scenes()}
    if name in batch:
        return batch[name]
    if name == "box-crossing":
        return BOX, [Point2(2, 5), Point2(4, 5), Point2(5, 2), Point2(5, 4)]
    if name == "comb-s3-k4":
        comb = make_comb(3)
        return comb.polygon, comb_cover(comb, 4).guards
    if name == "comb-s2-flat":
        comb = make_comb(2)
        return comb.polygon, oracles.flat_comb_guards(comb, 2).guards
    if name == "fisk-L-k2":
        return L_HEXAGON, fisk_cover(L_HEXAGON, 2).guards
    if name == "fisk-quad-k1":
        quad = SimplePolygon([Point2(0, 0), Point2(4, 0), Point2(4, 4), Point2(0, 4)])
        return quad, fisk_cover(quad, 1).guards
    star = random_star_polygon(random.Random(17), 9)
    return star, fisk_cover(star, 1).guards


@pytest.mark.parametrize("name", REPORT_SCENES)
@pytest.mark.parametrize("factor", [1, 2 ** 520, 2 ** 1100], ids=["1", "2^520", "2^1100"])
def test_reports_match_the_fraction_glue(name, factor):
    # points, depths and order of every sample, for the built-in samples
    # alone and with a grid, against the Fraction bodies of the sampler;
    # each depth is the one-sample kernel's, which the tests above pin to
    # the Fraction depth oracle, computed once per point
    P, guards = report_scene(name)
    P, gs, _ = _scaled(P, guards, [], factor)
    known = {}

    def depth(P, guards, p):
        if p not in known:
            known[p] = depth_at_sample(P, guards, p)
        return known[p]

    for sampler in (None, ("grid", 5)):
        report = sample_depth(P, gs, sampler=sampler)
        assert report.samples == oracles.sample_depth_oracle(P, gs.guards, sampler, depth=depth)
    assert len(report.samples) > len(P.vertices) + len(gs)


def _grazing_points(comb, guards):
    """Points of the comb past each spike mouth's reflex corner r, on the
    line from a guard q through r: q's view of them grazes r, which no
    float verdict settles."""
    reflex = [v for v in comb.polygon.vertices if v.y == 2 and 0 < v.x < 2 * comb.spike_count]
    pts = [q + (r - q) * t for q in guards for r in reflex for t in (2, Fraction(3, 2))]
    return [p for p in pts if comb.polygon.contains(p)]


def _exact_sides(ax, ay, bx, by, pts):
    """[line][point] sign of the orientation of each homogeneous point
    (X, Y, W) against the directed line from (ax, ay) to (bx, by), one
    line per entry of the integer columns, in exact integers."""
    X, Y, W = (np.array([p[k] for p in pts], dtype=object)[None, :] for k in range(3))
    o = (bx - ax)[:, None] * (Y - ay[:, None] * W) - (by - ay)[:, None] * (X - ax[:, None] * W)
    return (o > 0).astype(int) - (o < 0).astype(int)


def _float_pass_records(monkeypatch):
    """Spies on the float pass: (name, result) of every batch margin,
    _wall_sides and _segment_sides call, in call order."""
    records = []
    for name in ("_margin", "_wall_sides", "_segment_sides"):
        def spied(*args, _name=name, _real=getattr(sampling, name), **kwargs):
            out = _real(*args, **kwargs)
            records.append((_name, out))
            return out
        monkeypatch.setattr(sampling, name, spied)
    return records


def _check_certain_signs(records, frame, samples):
    """Every float value the one pass in records calls certain (|c| >
    cert) has the sign of the exact orientation: the sides of samples and
    guards against each wall, and of walls and guards against each
    segment from a guard to a sample.  Returns (certain, uncertain)
    counts."""
    wx, wy = np.array(frame.walls + frame.walls[:1], dtype=object).T
    gx, gy = np.array(frame.ints, dtype=object).T
    # rows of a _segment_sides result: the closed walls, then the guards
    xs = np.concatenate((wx, gx))
    ys = np.concatenate((wy, gy))
    guards = [(x, y, 1) for x, y in frame.ints]
    (cert,) = [out for name, out in records if name == "_margin"]
    certain = uncertain = 0
    gi = 0
    for name, out in records:
        if name == "_margin":
            continue
        if name == "_wall_sides":
            checks = [(c, _exact_sides(wx[:-1], wy[:-1], wx[1:], wy[1:], pts))
                      for c, pts in zip(out[-1], (samples, guards))]
        else:
            qx, qy = frame.ints[gi]
            gi += 1
            exact = _exact_sides(np.full(len(xs), qx, dtype=object),
                                 np.full(len(ys), qy, dtype=object), xs, ys, samples)
            # w against q -> s turns the other way from s against q -> w
            checks = [(out, -exact)]
        for c, exact in checks:
            sure = np.abs(c) > cert
            assert (np.sign(c)[sure] == exact[sure]).all()
            certain += int(sure.sum())
            uncertain += int((~sure).sum())
    return certain, uncertain


@pytest.mark.parametrize("factor", [1, 2 ** 520, 2 ** 1100], ids=["1", "2^520", "2^1100"])
def test_certain_float_signs_are_exact_on_the_comb(monkeypatch, factor):
    # the comb's own samples with points past each reflex mouth corner,
    # on lines that graze it: every sign the float pass calls certain is
    # the exact one, and the grazing lines leave some uncertain
    comb = make_comb(3)
    guards = comb_cover(comb, 4).guards
    P, gs, pts = _scaled(comb.polygon, guards, _grazing_points(comb, guards), factor)
    frame, samples, _ = sampling._scan(P, gs, ("points", pts))
    exact = _Samples.exact(frame, list(samples))
    records = _float_pass_records(monkeypatch)
    _depths(frame, exact)
    certain, uncertain = _check_certain_signs(records, frame, samples)
    records.clear()
    _contains_mask(frame, exact)
    more, _ = _check_certain_signs(records, frame, samples)
    assert certain > 10 * uncertain > 0 and more > 0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(star_parts())
def test_certain_float_signs_are_exact_on_star_polygons(scene):
    P, guards, samples = scene
    for factor in (1, 2 ** 520, 2 ** 1100):
        Pb, gs, pts = _scaled(P, guards, samples, factor)
        frame = _Frame(Pb, gs.guards)
        hom = [frame.sample(p) for p in pts]
        exact = _Samples.exact(frame, hom)
        with pytest.MonkeyPatch.context() as mp:
            records = _float_pass_records(mp)
            _depths(frame, exact)
            assert sum(name == "_segment_sides" for name, _ in records) == len(gs)
            certain, _ = _check_certain_signs(records, frame, hom)
            records.clear()
            _contains_mask(frame, exact)
            more, _ = _check_certain_signs(records, frame, hom)
        assert certain > 0 and more > 0


def test_the_float_pass_settles_the_same_pairs_past_the_float_range(monkeypatch):
    # past 2^509 a frame divides its float columns by a power of two:
    # every sign test and margin scales by it exactly, so the float pass
    # leaves the integer kernel the same pairs as at scale 1.  The sampler
    # decides blocking along the guard lines its own samples were built
    # on, with no _between call; the given points on the lines through
    # two guards carry no such line, so their collinear pairs still reach
    # _between, after the order test along each segment
    comb = make_comb(3)
    gs = comb_cover(comb, 4)
    grazing = _grazing_points(comb, gs.guards)
    grazing += [p for a, b in combinations(gs.guards, 2)
                for p in (a + (b - a) * Fraction(1, 3), b + (b - a) * Fraction(1, 2))
                if comb.polygon.contains(p)]
    calls = {}
    for name in ("_between", "_wall_free"):
        def counted(*args, _name=name, _real=getattr(sampling, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)
        monkeypatch.setattr(sampling, name, counted)

    def run(factor):
        P, gsb, pts = _scaled(comb.polygon, gs.guards, grazing, factor)
        frame = _Frame(P, gsb.guards)
        calls.clear()
        report = sample_depth(P, gsb, sampler=("points", pts))
        return frame.unit // frame.scale, dict(calls), [d for _, d in report.samples]

    shift, base_calls, base_depths = run(1)
    assert shift == 1 and base_calls["_wall_free"] == 40 and base_calls["_between"] > 0
    assert len(base_depths) > 1000
    for factor in (2 ** 520, 2 ** 1100):
        shift, got_calls, got_depths = run(factor)
        assert shift > factor // 2 ** 8
        assert got_calls == base_calls
        assert got_depths == base_depths


def test_the_float_pass_settles_boundary_samples(monkeypatch):
    # a sample on the boundary is settled without _wall_free when the
    # guard is certainly off each edge line through it: the former float
    # pass left 108 pairs of this scene to _wall_free, and a rule that
    # settles only guards strictly inside those lines leaves 24, all at
    # the reflex corners of the spike mouths
    comb = make_comb(3)
    gs = comb_cover(comb, 4)
    calls = []
    real = sampling._wall_free
    monkeypatch.setattr(sampling, "_wall_free", lambda *a: calls.append(a) or real(*a))
    counts = []
    for factor in (1, 2 ** 520, 2 ** 1100):
        P, gsb, _ = _scaled(comb.polygon, gs.guards, [], factor)
        calls.clear()
        sample_depth(P, gsb)
        counts.append(len(calls))
    assert counts[0] < 24
    assert counts == counts[:1] * 3


def test_the_float_pass_settles_guards_on_the_boundary(monkeypatch):
    # a guard on the boundary is settled when the sample is certainly
    # inside every edge line through it: the guard at the convex corner
    # (0, 0) and the one inside the floor edge see all three samples
    # without _wall_free; the one at the reflex corner (2, 2) settles
    # only (1, 1), inside both of its lines
    calls = []
    real = sampling._wall_free
    monkeypatch.setattr(sampling, "_wall_free", lambda *a: calls.append(a) or real(*a))
    gs = GuardSet([Point2(0, 0), Point2(2, 2), Point2(3, 0)])
    pts = [Point2(1, 1), Point2(3, 1), Point2(1, 3)]
    frame = _Frame(L_HEXAGON, gs.guards)
    assert batch_depths(L_HEXAGON, gs, pts) == [3, 3, 3]
    assert [(q, frame.point(s)) for _, q, s in calls] == [((2, 2), Point2(3, 1)),
                                                         ((2, 2), Point2(1, 3))]


def _vertex_kind(P, i):
    vs = P.vertices
    o = geometry.orientation(vs[i - 1], vs[i], vs[(i + 1) % len(vs)])
    return {1: "convex", 0: "straight", -1: "reflex"}[o]


def _boundary_scene(P, guard_vertices, extra_guards, outside=False):
    """(polygon, guards, samples, kinds): guards at the given vertices,
    at the midpoint of the edge after each and at extra_guards; samples
    at every vertex, inside every edge, and on every edge's line past
    its ends where that is in the closed polygon, or everywhere with
    outside (on a convex polygon every such point is outside); kinds
    names the kinds of sample and of guard the scene holds."""
    vs = P.vertices
    n = len(vs)
    guards = [vs[i] for i in guard_vertices]
    guards += [vs[i] + (vs[(i + 1) % n] - vs[i]) * Fraction(1, 2) for i in guard_vertices]
    guards += list(extra_guards)
    kinds = {"guard at " + _vertex_kind(P, i) for i in guard_vertices} | {"guard on edge"}
    samples = list(vs)
    kinds |= {"sample at " + _vertex_kind(P, i) for i in range(n)}
    for a, b in P.edges():
        samples += [a + (b - a) * Fraction(1, 3), a + (b - a) * Fraction(1, 2)]
        beyond = [a + (b - a) * t for t in (Fraction(-1, 2), Fraction(3, 2), 2, -1)]
        if not outside:
            beyond = [p for p in beyond if oracles.simple_where_oracle(P, p) != "exterior"]
        samples += beyond
        kinds |= {"sample inside edge"} | ({"sample on line past edge"} if beyond else set())
    return P, list(dict.fromkeys(guards)), list(dict.fromkeys(samples)), kinds


def _boundary_scenes():
    comb3, comb5 = make_comb(3), make_comb(5)
    star = random_star_polygon(random.Random(17), 9)
    star2 = random_star_polygon(random.Random(3), 10)
    reflex = [i for i in range(len(star.vertices)) if _vertex_kind(star, i) == "reflex"]
    convex = [i for i in range(len(star.vertices)) if _vertex_kind(star, i) == "convex"]
    reflex2 = [i for i in range(len(star2.vertices)) if _vertex_kind(star2, i) == "reflex"]
    triangle = ConvexPolygon([Point2(0, 0), Point2(8, 0), Point2(4, 8)])
    square = ConvexPolygon([Point2(0, 0), Point2(6, 0), Point2(6, 6), Point2(0, 6)])
    # comb3: the floor corner, a reflex mouth corner and a spike tip;
    # comb5: a straight floor vertex, a reflex mouth corner and a tip;
    # the convex polygons take the same path, with a guard a quarter of
    # the way along the triangle's floor and one at the square's centre,
    # which blocks its diagonal
    return [
        _boundary_scene(triangle, [0, 1], [Point2(2, 0)], outside=True),
        _boundary_scene(square, [0, 2], [Point2(3, 3)], outside=True),
        _boundary_scene(comb3.polygon, [0, 4, 5], comb_cover(comb3, 2).guards[:2]),
        _boundary_scene(comb5.polygon, [2, 8, 9], comb_cover(comb5, 2).guards[:2]),
        _boundary_scene(star, reflex[:2] + convex[:2], [Point2(0, 0)]),
        _boundary_scene(star2, reflex2[:3], []),
    ]


@pytest.mark.parametrize("factor", [1, 2 ** 520, 2 ** 1100], ids=["1", "2^520", "2^1100"])
def test_boundary_samples_match_the_exact_kernel(factor):
    # guards at convex, reflex and straight vertices and inside edges;
    # samples at every vertex, inside edges and on edge lines past the
    # edge: the float pass and the exact kernel give the same depths, on
    # convex polygons too, where the points past an edge lie outside
    kinds = set()
    for P, guards, samples, scene_kinds in _boundary_scenes():
        kinds |= scene_kinds
        Pb, gsb, ptsb = _scaled(P, guards, samples, factor)
        frame = _Frame(Pb, gsb.guards)
        exact = [sum(sampling._sees(frame.walls, frame.ints, q, frame.sample(p))
                     for q in frame.ints) for p in ptsb]
        assert batch_depths(Pb, gsb, ptsb) == exact
        assert exact == [oracles.depth_at_sample_oracle(Pb, gsb.guards, p) for p in ptsb]
        assert min(exact) < max(exact)
    assert kinds == {"guard at convex", "guard at reflex", "guard at straight", "guard on edge",
                     "sample at convex", "sample at reflex", "sample at straight",
                     "sample inside edge", "sample on line past edge"}


@pytest.mark.parametrize("P", [L_HEXAGON, make_comb(3).polygon], ids=["L-hexagon", "comb-s3"])
def test_random_samples_match_the_fraction_draws(P):
    frame = _Frame(P, ())
    for seed in range(10):
        got = [frame.point(s) for s in _random_points(frame, seed, 40)]
        assert got == oracles.random_points_oracle(P, seed, 40)
        assert len(got) == 40


def test_the_sample_path_builds_no_fraction_points(monkeypatch):
    # the sampler keeps samples in the frame's integers: a Point2 built
    # for anything but a reported sample, a Fraction hull or float columns
    # built from Fractions would mean Fraction glue crept back onto the
    # path.  _floats (the former Fraction column builder) is gone;
    # patching it anyway makes a reintroduced one fail here.
    comb = make_comb(3)
    gs = comb_cover(comb, 2)
    before = sample_depth(comb.polygon, gs, sampler=("grid", 8)).samples

    def refuse(*args, **kwargs):
        raise AssertionError("Fraction glue on the sample path")

    made = []
    to_point = _Frame.point

    def spy(self, s):
        made.append(to_point(self, s))
        return made[-1]

    monkeypatch.setattr(_Frame, "point", spy)
    monkeypatch.setattr(geometry, "convex_hull", refuse)
    monkeypatch.setattr(sampling, "_floats", refuse, raising=False)
    report = sample_depth(comb.polygon, gs, sampler=("grid", 8))
    assert report.samples == before
    # _Frame.point runs exactly once per reported sample
    assert made == [p for p, _ in report.samples]
    assert len(made) > len(comb.polygon.vertices) + len(gs)


def _blocker_scenes():
    # three or more guards on one line, so a sample beyond them has
    # several possible blockers, and the nearest of them is not the
    # first guard; off-line guards add dark rays that cross the line
    comb = make_comb(3)
    on_box = [Point2(2, 5), Point2(4, 5), Point2(6, 5), Point2(8, 5)]
    box_guards = on_box + [Point2(3, 8), Point2(7, 2), Point2(5, 9)]
    box_line = [Point2(Fraction(x, 2), 5) for x in range(21)]
    # the comb's line x = 3 runs from the floor through spike 1 to its tip
    on_comb = [Point2(3, Fraction(1, 2)), Point2(3, 1), Point2(3, Fraction(3, 2)),
               Point2(3, 4), Point2(3, 7)]
    comb_guards = on_comb + [Point2(1, 1), Point2(5, 1)]
    comb_line = [Point2(3, Fraction(y, 4)) for y in range(41)]
    return [("box", BOX, box_guards, box_line), ("comb-s3", comb.polygon, comb_guards, comb_line)]


@pytest.mark.parametrize("scene", _blocker_scenes(), ids=lambda s: s[0])
def test_several_collinear_blockers_match_the_oracle(scene):
    _, P, guards, line = scene
    gs = GuardSet(guards)
    report = sample_depth(P, gs, sampler=("grid", 10))
    pts = [p for p, _ in report.samples]
    pts += [p for p in line if p not in set(pts)]
    exact = [oracles.depth_at_sample_oracle(P, gs.guards, p) for p in pts]
    assert batch_depths(P, gs, pts) == exact
    assert [d for _, d in report.samples] == exact[:len(report.samples)]
    # some sample on the line loses three guards to blocking
    assert any(d <= len(gs) - 3 for d in exact)


def test_the_cli_builds_only_the_points_it_reports(monkeypatch, tmp_path, capsys):
    # a sampled certificate needs a Point2 for its witness and for each
    # j's witness only; each is the first sample sample_depth reports at
    # that depth
    comb = make_comb(3)
    star = random_star_polygon(random.Random(17), 9)
    scenes = [("comb", comb.polygon, comb_cover(comb, 2)), ("star", star, fisk_cover(star, 1))]
    js = [1, 2]
    made = []
    to_point = _Frame.point

    def spy(self, s):
        made.append(to_point(self, s))
        return made[-1]

    for name, P, gs in scenes:
        region = tmp_path / ("%s-region.json" % name)
        region.write_text(json.dumps(region_to_dict(P)))
        placed = tmp_path / ("%s-guards.json" % name)
        placed.write_text(json.dumps([point_to_json(g) for g in gs]))
        for grid in (None, 6):
            samples = sample_depth(P, gs, sampler=None if grid is None else ("grid", grid)).samples
            argv = ["verify", "--region", str(region), "--guards", str(placed),
                    "--mode", "sample", "--format", "json"]
            argv += [a for j in js for a in ("--j", str(j))]
            argv += [] if grid is None else ["--grid", str(grid)]
            made.clear()
            with monkeypatch.context() as m:
                m.setattr(_Frame, "point", spy)
                assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_WITNESS)
            cert = CertificateDocument.loads(capsys.readouterr().out)
            low = min(d for _, d in samples)
            assert cert.min_depth == low
            assert cert.witness == next(p for p, d in samples if d == low)
            for r in cert.j_dark:
                hit = next((p for p, d in samples if d <= len(gs) - r.j), None)
                assert r.found == (hit is not None) and r.witness == hit
            assert made == [cert.witness] + [r.witness for r in cert.j_dark if r.found]
            assert len(made) <= 1 + len(js)
