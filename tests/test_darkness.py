"""Dark rays, portions, depth certificates, and the boundary census.

Derived expectations are frozen from the brute-force oracles in
oracles.py, which recount darkness straight from the blocking
definition.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import os
import random
import weakref
from fractions import Fraction
from math import inf

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from darkgallery import cli, darkness, sampling
from darkgallery._filter import _nearest
from darkgallery.construct import construct, place_4n_minus_2, place_general_position
from darkgallery.darkness import (
    GuardSet,
    boundary_census,
    collinear_groups,
    dark_portions,
    darkness_at,
    find_concurrent_dark_rays,
    has_j_dark,
    max_darkness,
    min_depth,
)
from darkgallery.documents import PlacementDocument, region_to_dict
from darkgallery.fixtures import builtin_fixture
from darkgallery.geometry import (
    ConvexPolygon,
    Point2,
    SimplePolygon,
    Wedge,
    _forward_step,
    _clip,
    _Frame,
    _halfplanes,
    _integers,
    centroid,
)
from darkgallery.sampling import sample_depth
from darkgallery.simple import comb_cover, fisk_cover, make_comb

import oracles
from oracles import find_collinear_triple
from conftest import (
    distinct_interior_points,
    random_affine_map,
    random_convex_polygon,
    random_interior_point,
    random_star_polygon,
)

TRIANGLE = ConvexPolygon([Point2(0, 0), Point2(8, 0), Point2(4, 8)])
HALF = Fraction(1, 2)


def test_guard_set_rejects_duplicates():
    with pytest.raises(ValueError):
        GuardSet([Point2(0, 0), Point2(0, 0)])


# --- collinear grouping -----------------------------------------------------

def test_three_generic_guards_make_three_lines():
    lines = collinear_groups([Point2(0, 0), Point2(4, 0), Point2(0, 4)])
    assert len(lines) == 3
    assert all(len(gl.members) == 2 for gl in lines)


def test_collinear_guards_merge_into_one_line():
    lines = collinear_groups([Point2(0, 0), Point2(1, 0), Point2(2, 0)])
    assert len(lines) == 1
    assert [m for m in lines[0].members] == [Point2(0, 0), Point2(1, 0), Point2(2, 0)]


def test_square_fixture_grouping_matches_pairwise_oracle():
    _, gset = builtin_fixture("square")
    lib = sorted(tuple(sorted((str(m.x), str(m.y)) for m in gl.members))
                 for gl in collinear_groups(gset))
    orc = sorted(tuple(sorted((str(m.x), str(m.y)) for m in members))
                 for members in oracles.group_lines_oracle(gset.guards).values())
    assert lib == orc


def test_every_guard_pair_lies_in_exactly_one_line():
    rng = random.Random(5)
    for _ in range(10):
        P = random_convex_polygon(rng, 4)
        guards = distinct_interior_points(rng, P, 6)
        guards.append(guards[0] + (guards[1] - guards[0]) * HALF)  # force a triple
        lines = collinear_groups(guards)
        seen = set()
        for gl in lines:
            ms = list(gl.members)
            for i in range(len(ms)):
                for j in range(i + 1, len(ms)):
                    pair = frozenset((ms[i], ms[j]))
                    assert pair not in seen
                    seen.add(pair)
        g = len(guards)
        assert len(seen) == g * (g - 1) // 2


# --- dark portions ----------------------------------------------------------

def portioned(members):
    lines = collinear_groups(members)
    assert len(lines) == 1
    return dark_portions(lines[0])


def test_two_member_line_has_two_unbounded_portions():
    ports = portioned([Point2(0, 0), Point2(1, 0)])
    unbounded = [p for p in ports if p.blocked_count == 1]
    assert len(unbounded) == 2


def test_three_member_line_blocked_counts_match_definition():
    guards = [Point2(0, 0), Point2(1, 0), Point2(2, 0)]
    ports = portioned(guards)
    ends = [p for p in ports if p.blocked_count == 2]
    gaps = [p for p in ports if p.blocked_count == 1]
    assert len(ends) == 2 and len(gaps) == 2
    # the definition agrees: beyond the last member two guards are hidden,
    # in a gap exactly one is
    assert oracles.darkness_oracle(guards, Point2(3, 0)) == 2
    assert oracles.darkness_oracle(guards, Point2(-1, 0)) == 2
    assert oracles.darkness_oracle(guards, Point2(HALF, 0)) == 1
    assert oracles.darkness_oracle(guards, Point2(Fraction(3, 2), 0)) == 1


def test_four_member_line_blocked_counts():
    guards = [Point2(i, 0) for i in range(4)]
    ports = portioned(guards)
    assert sorted(p.blocked_count for p in ports) == [2, 2, 2, 3, 3]
    assert oracles.darkness_oracle(guards, Point2(9, 0)) == 3
    assert oracles.darkness_oracle(guards, Point2(Fraction(3, 2), 0)) == 2


# --- darkness at a point ----------------------------------------------------

def test_vertex_guards_leave_centroid_bright():
    guards = list(TRIANGLE.vertices)
    c = centroid(guards)
    assert darkness_at(TRIANGLE, guards, c).darkness == 0


def test_one_blocker_one_dark_guard():
    big = ConvexPolygon([Point2(-1, -1), Point2(9, -1), Point2(9, 1), Point2(-1, 1)])
    w = darkness_at(big, [Point2(0, 0), Point2(1, 0)], Point2(2, 0))
    assert w.darkness == 1
    assert w.darkness == oracles.darkness_oracle([Point2(0, 0), Point2(1, 0)], Point2(2, 0))


def test_two_blockers_two_dark_guards():
    big = ConvexPolygon([Point2(-1, -1), Point2(9, -1), Point2(9, 1), Point2(-1, 1)])
    guards = [Point2(0, 0), Point2(1, 0), Point2(2, 0)]
    assert darkness_at(big, guards, Point2(3, 0)).darkness == 2


def test_darkness_at_a_guard_point_sees_itself():
    big = ConvexPolygon([Point2(-1, -1), Point2(9, -1), Point2(9, 1), Point2(-1, 1)])
    guards = [Point2(0, 0), Point2(1, 0), Point2(2, 0)]
    # the guard at (2,0) is hidden from (0,0) but sees itself and (1,0)
    w = darkness_at(big, guards, Point2(2, 0))
    assert w.darkness == 1


@pytest.mark.parametrize("region", [TRIANGLE, Wedge(Point2(0, 0), Point2(1, 0), Point2(1, 2))],
                         ids=["polygon", "wedge"])
def test_darkness_at_refuses_points_outside_and_takes_the_boundary(region):
    # both regions have the edge y = 2x through the origin, which the
    # guard line y = 1 meets at (1/2, 1): two guards hide behind (1, 1)
    guards = [Point2(1, 1), Point2(2, 1), Point2(3, 1)]
    for p, dark in ((Point2(HALF, 1), 2), (Point2(0, 0), 0), (Point2(5, 0), 0)):
        assert region.where(p) == "boundary"
        assert darkness_at(region, guards, p).darkness == dark == oracles.darkness_oracle(guards, p)
    for p in (Point2(Fraction(1, 4), 1), Point2(5, Fraction(-1, 3 ** 40)), Point2(-1, 0)):
        with pytest.raises(ValueError, match="query point .* lies outside the region"):
            darkness_at(region, guards, p)


def test_witness_invariants_on_random_scenes():
    rng = random.Random(31)
    for _ in range(8):
        P = random_convex_polygon(rng, rng.randint(3, 5))
        guards = distinct_interior_points(rng, P, rng.randint(3, 6))
        w = max_darkness(P, guards)
        assert P.contains(w.point)
        assert w.darkness == sum(count for _line, count in w.contributing_lines)
        assert w.darkness == oracles.darkness_oracle(guards, w.point)


# --- maximum darkness and depth certificates --------------------------------

def test_vertex_guards_have_no_dark_point():
    assert max_darkness(TRIANGLE, list(TRIANGLE.vertices)).darkness == 0


def test_centroid_guard_adds_exactly_one_level_of_darkness():
    guards = list(TRIANGLE.vertices) + [centroid(TRIANGLE.vertices)]
    assert max_darkness(TRIANGLE, guards).darkness == 1
    assert oracles.max_darkness_oracle(TRIANGLE, guards)[0] == 1


def test_five_guards_four_cover_a_triangle():
    # two vertex guards joined by an edge guard, a fifth on the segment
    # from the third vertex to the edge guard: every interior dark
    # portion hides exactly one guard
    P = ConvexPolygon([Point2(0, 0), Point2(4, 0), Point2(2, 4)])
    guards = [Point2(0, 0), Point2(4, 0), Point2(2, 4), Point2(1, 0),
              Point2(Fraction(3, 2), 2)]
    cert = min_depth(P, guards)
    assert cert.g == 5
    assert cert.max_darkness == 1
    assert cert.min_depth == 4
    # points beside the edge guard are hidden from exactly one guard
    assert darkness_at(P, guards, Point2(2, 0)).darkness == 1
    assert darkness_at(P, guards, Point2(HALF, 0)).darkness == 1


def test_min_depth_matches_exhaustive_oracle_on_random_scenes():
    rng = random.Random(47)
    for trial in range(6):
        P = random_convex_polygon(rng, rng.randint(3, 5))
        guards = distinct_interior_points(rng, P, rng.randint(2, 6))
        if trial % 2 == 0:
            guards.append(guards[0] + (guards[1] - guards[0]) * Fraction(1, 3))
        if trial % 3 == 0:
            guards.append(P.vertices[0])
        dark, _ = oracles.max_darkness_oracle(P, guards)
        cert = min_depth(P, guards)
        assert cert.max_darkness == dark
        assert cert.min_depth == len(guards) - dark
        assert 1 <= cert.min_depth <= cert.g


def test_min_depth_rejects_outside_guard():
    with pytest.raises(ValueError):
        min_depth(TRIANGLE, [Point2(100, 100)])


def test_certificates_ignore_guard_order():
    rng = random.Random(13)
    P = random_convex_polygon(rng, 4)
    guards = distinct_interior_points(rng, P, 7)
    guards.append(guards[0] + (guards[1] - guards[0]) * HALF)
    base = min_depth(P, guards)
    for _ in range(4):
        rng.shuffle(guards)
        again = min_depth(P, guards)
        assert again.min_depth == base.min_depth
        assert again.max_darkness == base.max_darkness
        assert again.witness.point == base.witness.point


def test_certificates_survive_affine_maps():
    rng = random.Random(17)
    for _ in range(5):
        P = random_convex_polygon(rng, rng.randint(3, 5))
        guards = distinct_interior_points(rng, P, 5)
        guards.append(guards[0] + (guards[1] - guards[0]) * HALF)
        base = min_depth(P, guards)
        apply, _, _ = random_affine_map(rng)
        Q = ConvexPolygon([apply(v) for v in P.vertices])
        mapped = [apply(g) for g in guards]
        moved = min_depth(Q, mapped)
        assert moved.min_depth == base.min_depth
        assert moved.max_darkness == base.max_darkness


# --- j-dark queries ----------------------------------------------------------

def test_generic_interior_guard_is_never_2_dark():
    rng = random.Random(3)
    T = random_convex_polygon(rng, 3)
    guards = list(T.vertices) + [random_interior_point(rng, T)]
    assert not oracles.has_collinear_triple(guards)
    found, witness = has_j_dark(T, guards, 2)
    assert not found and witness is None


def test_too_many_guards_force_a_2_dark_point():
    rng = random.Random(21)
    for _ in range(3):
        T = random_convex_polygon(rng, 3)
        guards = distinct_interior_points(rng, T, 11)  # beyond the 4n-2 bound
        found, witness = has_j_dark(T, guards, 2)
        assert found
        assert oracles.darkness_oracle(guards, witness.point) >= 2
        assert T.contains(witness.point)


def test_more_guards_than_vertices_force_a_dark_point():
    rng = random.Random(23)
    for n in (3, 4, 5):
        P = random_convex_polygon(rng, n)
        guards = distinct_interior_points(rng, P, n + 1)
        found, witness = has_j_dark(P, guards, 1)
        assert found
        assert oracles.darkness_oracle(guards, witness.point) >= 1


def test_guard_triangle_with_two_interior_guards_is_2_dark():
    rng = random.Random(29)
    for _ in range(10):
        T = random_convex_polygon(rng, 3)
        guards = list(T.vertices) + distinct_interior_points(rng, T, 2)
        if oracles.has_collinear_triple(guards):
            continue
        found, _ = has_j_dark(T, guards, 2)
        assert found


def test_edge_guard_plus_segment_guard_avoids_2_dark():
    # the one five-guard shape that a guard triangle admits: a guard on
    # a polygon edge between two corner guards, and a fifth on the
    # segment from the opposite corner to it
    P = ConvexPolygon([Point2(0, 0), Point2(4, 0), Point2(2, 4)])
    guards = [Point2(0, 0), Point2(4, 0), Point2(2, 4), Point2(1, 0),
              Point2(Fraction(3, 2), 2)]
    found, _ = has_j_dark(P, guards, 2)
    assert not found


# --- collinearity / concurrency helpers --------------------------------------

def test_find_collinear_triple():
    assert find_collinear_triple(
        [Point2(0, 0), Point2(1, 0), Point2(2, 0), Point2(5, 7)]) == (0, 1, 2)
    assert find_collinear_triple([Point2(0, 0), Point2(1, 0), Point2(0, 1)]) is None


def test_find_concurrent_dark_rays():
    # three guard pairs aimed so their outward rays all pass the origin
    conc = [Point2(1, 1), Point2(2, 2), Point2(1, -1), Point2(2, -2),
            Point2(-1, 0), Point2(-2, 0)]
    hit = find_concurrent_dark_rays(conc)
    assert hit is not None
    point, count = hit
    assert point == Point2(0, 0)
    assert count == 3
    assert find_concurrent_dark_rays([Point2(0, 0), Point2(1, 0), Point2(0, 1)]) is None


# --- the pair scan -------------------------------------------------------------
#
# _pair_scan takes one path at every piece count and coordinate size.  Its
# filters only drop pairs that cannot cross, so the walk of its hits
# (oracles.pair_hits) must yield exactly the hits of the plain loop over
# all pairs, in the same order, and its float parameters on both pieces
# must hold the exact ones.


def assert_scan_matches_the_oracle(pieces):
    hits = list(oracles.pair_hits(pieces))
    assert hits == list(oracles.pair_hits_oracle(pieces))
    _, _, T, E, V, EV = darkness._pair_scan(pieces, oracles.piece_columns(pieces))
    for (_, _, un, vn, D), t, e, v, ev in zip(hits, T.tolist(), E.tolist(), V.tolist(),
                                             EV.tolist()):
        for x, err, n in ((t, e, un), (v, ev, vn)):
            assert err == inf or abs(Fraction(x) - Fraction(n, D)) <= Fraction(err)
    return hits


def dark_rays(guards):
    """The pieces of the plane-wide scan of find_concurrent_dark_rays."""
    return [p for p in darkness._Analysis(None, GuardSet(guards)).pieces if p[4] is None]


DYADIC = Fraction(1, 2 ** 33)
BIG_DEN = 3 ** 25
LATTICE = [Point2(x, y) for x in (2, 5, 9) for y in (1, 6, 10)]


def nudged_lattice(den):
    """The lattice guards moved by +-1/den off their rows and columns.

    At den = 2**53 or 2**53 + 1 the scale is den, so the guards near y = 1
    have scaled y straddling 2**53, and every other scaled coordinate is a
    few times 2**53: distinct integer anchors round to the same float.
    Near-collinear triples make pieces that cross or miss within a few
    scaled units of a guard, where the float sign test with no error bound
    drops true crossings (both dens) and a bound of 2**-54 is still too
    tight (den = 2**53 + 1).
    """
    nudges = [(-1, 1), (0, 0), (-1, 1), (-1, 1), (0, 0), (1, 0), (0, -1), (1, 0), (-1, -1)]
    e = Fraction(1, den)
    return (
        ConvexPolygon([Point2(0, 0), Point2(12, 0), Point2(12, 12), Point2(0, 12)]),
        [Point2(p.x + a * e, p.y + b * e) for p, (a, b) in zip(LATTICE, nudges)],
    )


BRANCH_SCENES = {
    # integer lattice: rows and columns of three collinear guards
    "lattice": (
        ConvexPolygon([Point2(0, 0), Point2(12, 0), Point2(12, 12), Point2(0, 12)]),
        LATTICE,
    ),
    # rational, with its apex hidden from both lower corners (2-dark)
    "two-dark": (
        ConvexPolygon([Point2(0, 0), Point2(6, 0), Point2(3, 6)]),
        [Point2(0, 0), Point2(6, 0), Point2(Fraction(9, 2), 3), Point2(Fraction(3, 2), 3)],
    ),
    # the five-guard triangle shape with no 2-dark point
    "no-two-dark": (
        ConvexPolygon([Point2(0, 0), Point2(4, 0), Point2(2, 4)]),
        [Point2(0, 0), Point2(4, 0), Point2(2, 4), Point2(1, 0), Point2(Fraction(3, 2), 2)],
    ),
    # guards on two edges and a diagonal: three dark portions meet at the
    # corner (12, 12), where the pieces' boxes only touch
    "corner": (
        ConvexPolygon([Point2(0, 0), Point2(12, 0), Point2(12, 12), Point2(0, 12)]),
        [Point2(12, 4), Point2(12, 8), Point2(4, 12), Point2(8, 12), Point2(6, 6),
         Point2(9, 9)],
    ),
    # unbounded pieces: infinite box ends and open far ends
    "wedge": (
        Wedge(Point2(0, 0), Point2(1, 0), Point2(1, 2)),
        [Point2(1, 1), Point2(3, 1), Point2(2, 3), Point2(5, 2), Point2(4, 6), Point2(7, 3)],
    ),
    # dyadic coordinates down to 2**-33 with a collinear triple: the scaled
    # scene outgrows int64 on its own
    "dyadic": (
        ConvexPolygon([Point2(0, 0), Point2(12, 0), Point2(12, 12), Point2(0, 12)]),
        [Point2(2 + DYADIC, 1), Point2(Fraction(3, 4), Fraction(29, 8)),
         Point2(7, 4 + 5 * DYADIC), Point2(9 + 3 * DYADIC, Fraction(33, 16)),
         Point2(Fraction(21, 4), Fraction(9, 2)), Point2(Fraction(11, 2), 8 - DYADIC),
         # the midpoint of the first and third guards
         Point2(Fraction(9, 2) + DYADIC / 2, Fraction(5, 2) + 5 * DYADIC / 2)],
    ),
    # 3**25 denominators
    "big-denominator": (
        ConvexPolygon([Point2(0, 0), Point2(9, 0), Point2(9, 9), Point2(0, 9)]),
        [Point2(Fraction(a, BIG_DEN), Fraction(b, BIG_DEN))
         for a, b in ((BIG_DEN + 1, BIG_DEN + 2), (4 * BIG_DEN - 5, 2 * BIG_DEN + 7),
                      (7 * BIG_DEN + 2, 3 * BIG_DEN + 12), (2 * BIG_DEN + 1, 8 * BIG_DEN),
                      (5 * BIG_DEN, BIG_DEN + 1), (8 * BIG_DEN - 4, 7 * BIG_DEN))],
    ),
    # two three-guard lines whose outer dark rays (2 blocked each) meet
    # only at (6, 12) on the top edge, the unique 4-dark point: the earlier
    # piece comes from the left and its box ends at x = 6, where the later
    # piece's box begins
    "box-edge": (
        ConvexPolygon([Point2(0, 0), Point2(12, 0), Point2(12, 12), Point2(0, 12)]),
        [Point2(3, 3), Point2(4, 6), Point2(5, 9),
         Point2(7, Fraction(19, 2)), Point2(8, 7), Point2(10, 2)],
    ),
    "nudged-2^53": nudged_lattice(2 ** 53),
    "nudged-2^53+1": nudged_lattice(2 ** 53 + 1),
    # three guards on the bottom edge.  The dark ray down from (4, 3) ends
    # on the edge at (4, 0), a closed far end on the gap piece from (2, 0)
    # to (5, 0): a crossing.  That gap piece ends open at the guard (5, 0),
    # where the pieces of the column x = 5 start open: no crossing.
    "far-ends": (
        ConvexPolygon([Point2(0, 0), Point2(12, 0), Point2(12, 12), Point2(0, 12)]),
        [Point2(2, 0), Point2(5, 0), Point2(9, 0), Point2(4, 3), Point2(4, 6),
         Point2(5, 3), Point2(5, 7)],
    ),
}


def complete_candidates(analysis):
    """(darkness, xn, yn, den) over the complete candidate set of the
    analysis: point_candidates() (crossings, then guard points), then one
    point inside each sub-piece of every piece, at the piece's blocked
    count, with the pieces cut at the oracle's crossing parameters."""
    _, events = oracles.crossings_oracle(analysis.pieces)
    out = oracles.point_candidates(analysis)
    for idx, piece in enumerate(analysis.pieces):
        out += [(piece[7], *key)
                for key in oracles.sub_piece_points_oracle(piece, events.get(idx, ()))]
    return out


def test_box_edge_scene_touches_only_at_the_unique_maximum():
    region, guards = BRANCH_SCENES["box-edge"]
    analysis = darkness._Analysis(region, GuardSet(guards))
    top = [c for c in complete_candidates(analysis) if c[0] >= 4]
    assert [(c[0], analysis.frame.point(c[1:4])) for c in top] == [(4, Point2(6, 12))]
    points, _ = oracles.crossings_oracle(analysis.pieces)
    i, j = sorted(points[top[0][1:4]])
    cols = oracles.piece_columns(analysis.pieces)
    assert analysis.pieces[i][8] != analysis.pieces[j][8]
    assert cols.hix[i] == cols.lox[j] == analysis.frame.scale * 6 and cols.lox[i] < cols.hix[i]
    # the analysis's own boxes hold those spans, so they overlap there too
    own = analysis.columns()
    assert own.lox[j] <= analysis.frame.scale * 6 <= own.hix[i]


def test_dyadic_and_big_denominator_scenes_outgrow_int64():
    # past 28 bits, products like 8*M**2 of the scaled coordinates no longer
    # fit int64: these scenes keep the scan pinned on large integers
    for scene in ("dyadic", "big-denominator"):
        region, guards = BRANCH_SCENES[scene]
        ints = _Frame(region, guards).ints
        assert max(abs(c) for p in ints for c in p).bit_length() > 28, scene


def scan_results(region, guards):
    w = max_darkness(region, guards)
    out = [("max", w.point, w.darkness)]
    for j in (1, 2, 3):
        found, witness = has_j_dark(region, guards, j)
        out.append((j, found, None if witness is None else witness.point))
        if found:
            assert region.contains(witness.point)
            assert oracles.darkness_oracle(guards, witness.point) == witness.darkness >= j
    assert oracles.darkness_oracle(guards, w.point) == w.darkness
    out.append(("concurrent", find_concurrent_dark_rays(guards)))
    return out


@pytest.mark.parametrize("scene", sorted(BRANCH_SCENES))
def test_scan_branches_agree(scene):
    region, guards = BRANCH_SCENES[scene]
    assert_scan_matches_the_oracle(darkness._Analysis(region, GuardSet(guards)).pieces)
    assert_scan_matches_the_oracle(dark_rays(guards))
    _, found2, _ = scan_results(region, guards)[2]
    assert found2 == (scene != "no-two-dark")


def test_far_ends_scene_crosses_only_at_the_closed_end():
    region, guards = BRANCH_SCENES["far-ends"]
    analysis = darkness._Analysis(region, GuardSet(guards))
    ends = {}
    for i, j, un, vn, D in assert_scan_matches_the_oracle(analysis.pieces):
        for k, t in ((i, un), (j, vn)):
            p = analysis.pieces[k]
            if p[4] is not None and t * p[5] == p[4] * D:
                ends[analysis.frame.point(darkness._point_key(p, t, D))] = p[6]
    # the gap piece along the edge ends open at the guard (5, 0)
    s = analysis.frame.scale
    assert any(p[6] and (p[0] + p[4] * p[2], p[1] + p[4] * p[3]) == (5 * s, 0)
               for p in analysis.pieces)
    # every hit at a far end is at a closed one, (4, 0) among them, and
    # none lands on (5, 0)
    assert ends[Point2(4, 0)] is False and not any(ends.values())
    assert Point2(5, 0) not in ends
    assert darkness_at(region, guards, Point2(4, 0)).darkness == 2


@st.composite
def nudged_lattice_guards(draw):
    """3 to 9 points of the 4-spaced lattice in a 16 x 16 square, each moved
    by k/2**b (|k| <= 3) for one b drawn per scene.  The coarse lattice
    makes collinear triples common, so the nudges leave near misses."""
    b = draw(st.sampled_from((0, 20, 52, 53, 54, 80, 1100)))
    c = st.integers(0, 4).map(lambda v: 4 * v)
    k = st.integers(-3, 3)
    cells = draw(st.lists(st.tuples(c, c, k, k), min_size=3, max_size=9))
    return list(dict.fromkeys(Point2(x + Fraction(kx, 2 ** b), y + Fraction(ky, 2 ** b))
                              for x, y, kx, ky in cells))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(nudged_lattice_guards())
def test_pair_scan_matches_the_oracle_on_nudged_lattices(guards):
    region = ConvexPolygon([Point2(-4, -4), Point2(20, -4), Point2(20, 20), Point2(-4, 20)])
    assert_table_matches_the_oracle(darkness._Analysis(region, GuardSet(guards)))
    assert_scan_matches_the_oracle(dark_rays(guards))


# the ids name the scan branches of earlier versions; both cases now run
# the one filtered scan, on scaled coordinates that fit in 28 bits and, with
# x shifted by 3**-40, on ones past 64 bits
@pytest.mark.parametrize("shift", [Fraction(0), Fraction(1, 3 ** 40)],
                         ids=["box+int64", "box"])
def test_find_concurrent_dark_rays_on_the_filtered_scan(shift):
    # three guard pairs whose outward rays meet at c, among random guards
    # that bring the scene to dozens of lines (two dark rays each)
    c = Point2(Fraction(1, 3) + shift, Fraction(2, 7))
    guards = [c + d * s for d in (Point2(1, 2), Point2(-3, 1), Point2(2, -5)) for s in (1, 2)]
    rng = random.Random(37)
    while len(guards) < 10:
        p = Point2(Fraction(rng.randint(-60, 60), 7) + shift, Fraction(rng.randint(-60, 60), 5))
        if p not in guards:
            guards.append(p)
    lines = len(collinear_groups(guards))
    assert lines >= 24
    _, ints = _integers(guards)
    bits = max(abs(c) for p in ints for c in p).bit_length()
    assert bits <= 28 if shift == 0 else bits > 64

    assert len(assert_scan_matches_the_oracle(dark_rays(guards))) > 0
    hit = find_concurrent_dark_rays(guards)

    crossings = oracles.dark_ray_crossings_oracle(guards)
    assert len(crossings[c]) == 3
    point = min((p for p, keys in crossings.items() if len(keys) >= 3),
                key=lambda p: (p.x, p.y))
    assert hit == (point, len(crossings[point]))


def test_box_prefilter_survives_coordinates_past_the_float_range():
    # the lattice scene with x shifted by 3**-700: every scaled x is an
    # integer of over 1100 bits, which rounds to +inf in the float boxes
    # and makes the float sign test inf or NaN
    region, lattice = BRANCH_SCENES["lattice"]
    shift = Fraction(1, 3 ** 700)
    guards = [Point2(p.x + shift, p.y) for p in lattice]
    analysis = darkness._Analysis(region, GuardSet(guards))
    assert min(x for x, _ in analysis.frame.ints).bit_length() > 1100
    assert assert_scan_matches_the_oracle(analysis.pieces)
    w = max_darkness(region, guards)
    assert w.darkness == oracles.darkness_oracle(guards, w.point) == 3
    for j in range(1, w.darkness + 2):
        found, witness = has_j_dark(region, guards, j)
        assert found == (j <= w.darkness)
        if found:
            assert oracles.darkness_oracle(guards, witness.point) == witness.darkness >= j


# --- crossing darkness -------------------------------------------------------
#
# The pair scan keeps one total per crossing, summed from the blocked
# counts of the pieces through it; max_darkness evaluates only the pieces
# at the top level, and only the reported point gets its per-line
# breakdown.  These tests pin the facts that make this exact.


@functools.lru_cache(maxsize=None)
def lattice_octagon():
    """16 guards on a 6-spaced integer lattice in a random 8-gon: lines
    of up to seven guards, 191 pieces, 247 crossings."""
    rng = random.Random(2)
    P = random_convex_polygon(rng, 8, size=60)
    pts = [Point2(x, y) for x in range(0, 61, 6) for y in range(0, 61, 6)
           if P.where(Point2(x, y)) == "interior"]
    return P, rng.sample(pts, 16)


@functools.lru_cache(maxsize=None)
def placement_4n_minus_2():
    """A full 4n-2 placement on a random 6-gon (22 guards, no 2-dark point)."""
    P = random_convex_polygon(random.Random(6), 6)
    return P, list(place_4n_minus_2(P)[0])


def concurrent_star():
    """Five guard pairs on lines through the origin, each pair's dark ray
    passing through it: darkness 5 there, where pieces and guard points
    reach 2 and every other crossing at most 3."""
    region = ConvexPolygon([Point2(-10, -10), Point2(10, -10), Point2(10, 10), Point2(-10, 10)])
    steps = zip([(1, 0), (0, 1), (1, 1), (1, -1), (-1, 2)], [(2, 3), (3, 5), (1, 4), (2, 7), (1, 3)])
    return region, [Point2(a * t, b * t) for (a, b), ts in steps for t in ts]


@functools.lru_cache(maxsize=None)
def general_position_20():
    """20 guards of place_general_position in a random 8-gon: 380 dark
    rays, every crossing on exactly two of them."""
    P = random_convex_polygon(random.Random(1), 8)
    return P, list(place_general_position(P, 20))


INVARIANT_SCENES = sorted(BRANCH_SCENES) + ["lattice-8gon", "4n-2"]


def invariant_scene(name):
    if name == "lattice-8gon":
        return lattice_octagon()
    if name == "4n-2":
        return placement_4n_minus_2()
    return BRANCH_SCENES[name]


@pytest.mark.parametrize("scene", INVARIANT_SCENES)
def test_crossings_know_their_darkness(scene):
    region, guards = invariant_scene(scene)
    analysis = darkness._Analysis(region, GuardSet(guards))
    assert_scan_matches_the_oracle(analysis.pieces)
    points = oracles.crossing_totals(analysis)
    cands = oracles.point_candidates(analysis)
    assert [c[1:] for c in cands[:len(points)]] == list(points)
    # the total summed from the pieces is the full rescan's and the
    # definition's, at a point of at least two distinct lines, where the
    # rescan's contributions are sorted by line id and sum to it
    # (INVARIANT_SCENES holds every BRANCH_SCENES entry)
    for total, xn, yn, den in cands[:len(points)]:
        rescan, contr = analysis.darkness_at_scaled(xn, yn, den)
        assert total == rescan == oracles.darkness_oracle(
            guards, analysis.frame.point((xn, yn, den)))
        ids = [line_id for line_id, _ in contr]
        assert len(ids) >= 2 and ids == sorted(set(ids))
        assert total == sum(cnt for _, cnt in contr)
    # the guard points' counts over their lines are the rescan's too
    for total, x, y, den in cands[len(points):]:
        assert total == analysis.darkness_at_scaled(x, y, den)[0]
    # every sub-piece point is dark by exactly its piece's blocked count,
    # which lets max_darkness read a piece's count for its sub-pieces
    complete = complete_candidates(analysis)
    for total, xn, yn, den in complete[len(cands):]:
        assert total == analysis.darkness_at_scaled(xn, yn, den)[0]
    top = max([c[0] for c in cands] + [p[7] for p in analysis.pieces])
    # the witness is the smallest point at top of the complete set, and
    # its contributions are the rescan's list at that point
    w = max_darkness(region, guards)
    full = [(analysis.frame.point((xn, yn, den)), (xn, yn, den))
            for total, xn, yn, den in complete if total == top]
    point, key = min(full, key=lambda c: (c[0].x, c[0].y))
    assert w.darkness == top
    assert w.point == point
    rescan, contr = analysis.darkness_at_scaled(*key)
    assert rescan == top
    assert [(tuple(gl.member_indices), cnt) for gl, cnt in w.contributing_lines] == \
        [(tuple(i for _, i in analysis.lines[line_id][3]), cnt) for line_id, cnt in contr]
    at_top = [idx for idx, p in enumerate(analysis.pieces) if p[7] == top]
    # top-level pieces have no crossings
    _, events = oracles.crossings_oracle(analysis.pieces)
    assert not any(idx in events for idx in at_top)
    if scene == "lattice-8gon":
        assert len(analysis.pieces) >= 48 and len(points) > 200 and top > 2
    if scene == "4n-2":
        assert not points and top == 1 and len(at_top) == len(analysis.pieces)


DIFFERENTIAL_SCENES = {"concurrent-star": concurrent_star, "general-position-20": general_position_20,
                       "guard-corner": lambda: guard_corner()}


@pytest.mark.parametrize("scene", INVARIANT_SCENES + sorted(DIFFERENTIAL_SCENES))
def test_crossing_totals_match_the_piece_sets(scene):
    # the former crossings() body keeps every crossing's piece set and
    # every piece's crossing parameters; the analysis keeps one total per
    # key, in the same order, and the sampler's own walk finds the same
    # crossing points and the same parameters for every piece
    region, guards = DIFFERENTIAL_SCENES.get(scene, lambda: invariant_scene(scene))()
    analysis = darkness._Analysis(region, GuardSet(guards))
    pieces = analysis.pieces
    points, events = oracles.crossings_oracle(pieces)
    totals = oracles.crossing_totals(analysis)
    assert list(totals) == list(points)
    assert list(totals.values()) == [sum(pieces[k][7] for k in ids) for ids in points.values()]

    fresh = darkness._Analysis(region, GuardSet(guards))
    want = [(sum(pieces[k][7] for k in ids), *key) for key, ids in points.items()]
    want += [(oracles.darkness_oracle(guards, g), x, y, 1)
             for g, (x, y) in zip(guards, fresh.frame.ints)]
    assert oracles.point_candidates(fresh) == want
    if not isinstance(region, ConvexPolygon):
        return
    # the sampler analyses the hull of the region and the guards, here the
    # region itself: its candidates are those of its former walk, which
    # confirmed every hit and cut each piece at its sorted exact cuts, and
    # the float columns carried with them hold the exact coordinates
    frame = _Frame(region, guards)
    cands = sampling._candidates(frame, darkness._Analysis(region, GuardSet(guards)))
    assert list(cands) == oracles.candidates_oracle(frame, fresh)
    assert_intervals_hold(frame, cands)
    got = sampling._suspicious_points(frame, region, GuardSet(guards))
    assert_intervals_hold(frame, got)
    expected = [key for _, *key in complete_candidates(fresh)]
    assert sorted(map(frame.point, got), key=lambda p: (p.x, p.y)) == \
        sorted(map(fresh.frame.point, expected), key=lambda p: (p.x, p.y))
    if scene == "general-position-20":
        assert len(points) > 1000 and all(len(ids) == 2 for ids in points.values())
    if scene == "concurrent-star":
        assert max(len(ids) for ids in points.values()) == 5


def assert_intervals_hold(frame, samples):
    """Each sample's float columns lie within its err of its exact
    coordinates X / (W * unit), or, with err 0, are their correctly
    rounded floats; returns the number of samples with an err."""
    for k in range(len(samples)):
        X, Y, W = samples[k]
        e = samples.err[k]
        for col, exact in ((samples.px[k], X), (samples.py[k], Y)):
            if e == 0:
                assert col == _nearest(exact, W * frame.unit)
            else:
                assert abs(Fraction(col) - Fraction(exact, W * frame.unit)) <= Fraction(e)
    return int((samples.err > 0).sum())


def suspicious_scene(name):
    """(polygon, guards) of a sampler scene: combs under comb_cover,
    star polygons under fisk_cover, two scenes of the exact engine, and
    an L-hexagon whose reflex corner alone has denominators."""
    if name.startswith("comb-"):
        s, k = map(int, name[5:].split("-k"))
        comb = make_comb(s)
        return comb.polygon, list(comb_cover(comb, k).guards)
    if name.startswith("star-"):
        n = int(name[5:])
        P = random_star_polygon(random.Random(n), n)
        return P, list(fisk_cover(P, 1).guards)
    if name == "concurrent-star":
        return concurrent_star()
    if name == "L-reflex-thirds":
        # the only denominators are the reflex corner's, off the hull, so
        # the sampler's frame is 21 times the hull analysis's
        P = SimplePolygon([Point2(0, 0), Point2(4, 0), Point2(4, 2),
                           Point2(Fraction(7, 3), Fraction(16, 7)), Point2(2, 4), Point2(0, 4)])
        return P, [Point2(1, 1), Point2(2, 1), Point2(3, 1), Point2(1, 2), Point2(1, 3)]
    return BRANCH_SCENES[name]


SUSPICIOUS_SCENES = ["comb-2-k2", "comb-3-k3", "comb-4-k2", "star-10", "star-16",
                     "concurrent-star", "nudged-2^53+1", "L-reflex-thirds"]


@pytest.mark.parametrize("factor", [1, 2 ** 520, 2 ** 1100], ids=["1", "2^520", "2^1100"])
@pytest.mark.parametrize("scene", SUSPICIOUS_SCENES)
def test_suspicious_points_match_the_oracle_in_order(scene, factor):
    # the sampler's one walk, its float-keyed deduplication and its sort
    # on the x column give the oracle's distinct points in the oracle's
    # (x, y) order, at every scale
    region, guards = suspicious_scene(scene)
    region = type(region)([v * factor for v in region.vertices])
    guards = [g * factor for g in guards]
    frame = _Frame(region, guards)
    got = sampling._suspicious_points(frame, region, GuardSet(guards))
    assert [frame.point(s) for s in got] == oracles.suspicious_points_oracle(region, guards)
    # each carried interval holds the exact coordinate
    assert_intervals_hold(frame, got)
    if scene == "concurrent-star":
        # five rays through the origin: ten hits there, one point
        pieces = darkness._Analysis(region, GuardSet(guards)).pieces
        hits = [darkness._point_key(pieces[i], un, D)
                for i, _, un, _, D in oracles.pair_hits(pieces)]
        assert hits.count((0, 0, 1)) == 10
        assert [frame.point(s) for s in got].count(Point2(0, 0)) == 1
    if scene == "nudged-2^53+1":
        # distinct cuts of one piece that round to one float
        pieces = darkness._Analysis(region, GuardSet(guards)).pieces
        cuts = {}
        for i, j, un, vn, D in oracles.pair_hits(pieces):
            cuts.setdefault((i, _nearest(un, D)), set()).add(Fraction(un, D))
            cuts.setdefault((j, _nearest(vn, D)), set()).add(Fraction(vn, D))
        assert any(len(ts) > 1 for ts in cuts.values())


@pytest.mark.parametrize("factor", [1, 2 ** 520, 2 ** 1100], ids=["1", "2^520", "2^1100"])
@pytest.mark.parametrize("scene", SUSPICIOUS_SCENES)
def test_the_line_rule_matches_between(scene, factor):
    # every blocking verdict the sampler takes from the guard lines its
    # samples were built on is _between's: where guard q lies on such a
    # line, q is blocked exactly when some guard stands between q and the
    # sample; every guard the rule rules out as a blocker stands between
    # nowhere
    region, guards = suspicious_scene(scene)
    region = type(region)([v * factor for v in region.vertices])
    guards = [g * factor for g in guards]
    frame, samples, _ = sampling._scan(region, GuardSet(guards), None)
    ints = frame.ints
    decided_pairs = ruled_out = 0
    for gi, q in enumerate(ints):
        decided, blocked = sampling._line_verdicts(samples, gi)
        for k in range(len(samples)):
            s = samples[k]
            if decided[k]:
                decided_pairs += 1
                assert blocked[k] == any(sampling._between(h, q, s) for h in ints)
                continue
            lines = samples.lines[:, k]
            for hi, h in enumerate(ints):
                if samples.member[lines, hi].any() or (samples.clear[:, k] == hi).any():
                    ruled_out += 1
                    assert not sampling._between(h, q, s)
    assert decided_pairs > len(samples) and ruled_out > 0


def test_views_of_a_batch_build_each_point_once():
    # a point read through two views of one batch, and again through a
    # join of one of them, is built once: the views share the batch's
    # store, and the join takes the points built there
    region, guards = suspicious_scene("concurrent-star")
    frame = _Frame(region, guards)
    cands = sampling._candidates(frame, darkness._Analysis(region, GuardSet(guards)))
    built = []
    make = cands._make
    cands._make = lambda j: built.append(j) or make(j)
    unbuilt = [k for k in range(len(cands)) if cands._pts[k] is None]
    assert len(unbuilt) > 100
    forward = cands.take(unbuilt)
    backward = cands.take(unbuilt[::-1])
    points = list(forward)
    assert built == unbuilt
    assert all(a is b for a, b in zip(backward, points[::-1]))
    corners = sampling._corners(frame)
    joined = sampling._Samples.join([corners, backward.take(range(len(backward)))])
    assert all(a is b for a, b in zip(joined.take(range(len(corners), len(joined))),
                                      points[::-1]))
    assert built == unbuilt
    # a point first read through a join is built once, by its part's
    # builder, for every view of the join
    fresh = sampling._candidates(frame, darkness._Analysis(region, GuardSet(guards)))
    joined = sampling._Samples.join([corners, fresh.take(unbuilt)])
    builds = []
    make = joined._make
    joined._make = lambda j: builds.append(j) or make(j)
    tail = range(len(corners), len(joined))
    assert list(joined.take(tail)) == points
    assert list(joined.take(tail[::-1])) == points[::-1]
    assert len(builds) == len(unbuilt)


def test_a_join_of_two_views_of_one_batch_builds_each_point_once():
    # a join holds one store per distinct batch: two views of one batch
    # index one copy of its store, so a point read through both is built
    # once, by the batch's builder
    region, guards = suspicious_scene("concurrent-star")
    frame = _Frame(region, guards)
    fresh = sampling._candidates(frame, darkness._Analysis(region, GuardSet(guards)))
    built = []
    make = fresh._make
    fresh._make = lambda j: built.append(j) or make(j)
    u = [k for k in range(len(fresh)) if fresh._pts[k] is None]
    assert len(u) > 100
    corners = sampling._corners(frame)
    joined = sampling._Samples.join([corners, fresh.take(u), fresh.take(u)])
    assert len(joined) == len(corners) + 2 * len(u)
    first = list(joined.take(range(len(corners), len(corners) + len(u))))
    second = list(joined.take(range(len(corners) + len(u), len(joined))))
    assert all(a is b for a, b in zip(first, second))
    assert built == u


@pytest.mark.parametrize("scene", sorted(BRANCH_SCENES))
def test_sub_piece_points_match_the_fraction_midpoints(scene):
    # the crossing cuts of every piece as the scan records them, then
    # repeated and unreduced, with cuts at and past a bounded piece's far
    # end, each list in increasing order as the sampler's sort hands it over
    region, guards = BRANCH_SCENES[scene]
    analysis = darkness._Analysis(region, GuardSet(guards))
    _, events = oracles.crossings_oracle(analysis.pieces)
    for idx, piece in enumerate(analysis.pieces):
        cuts = list(events.get(idx, ()))
        noisy = cuts + [(3 * n, 3 * d) for n, d in reversed(cuts)] + cuts[:1]
        if piece[4] is None:
            noisy += [(7, 2), (14, 4)]
        else:
            noisy += [(5 * piece[4], 5 * piece[5]), (2 * piece[4] + 1, piece[5])]
        for c in ((), cuts, noisy):
            c = sorted(c, key=lambda t: Fraction(*t))
            assert oracles.sub_piece_points(piece, c) == oracles.sub_piece_points_oracle(piece, c)
    # the wedge's pieces include unbounded ones
    assert any(p[4] is None for p in analysis.pieces) == (scene == "wedge")


# --- the scene's frame -------------------------------------------------------
#
# The exact engine scales its scene through geometry._Frame and builds the
# region's integer halfplanes from the frame's walls; the former scene body
# (scene_oracle) scaled every coordinate by Fraction products.


def frame_scene(name):
    if name == "past-2^1100":
        region, lattice = BRANCH_SCENES["lattice"]
        shift = Fraction(1, 3 ** 700)
        return region, [Point2(p.x + shift, p.y) for p in lattice]
    if name == "fixture-wedge":
        region, gset = builtin_fixture("wedge")
        return region, list(gset)
    if name == "fraction-wedge":
        # a rational apex and directions, guards with other denominators
        W = Wedge(Point2(Fraction(1, 3), Fraction(-2, 7)), Point2(Fraction(3, 2), Fraction(1, 5)),
                  Point2(Fraction(-1, 4), Fraction(5, 3)))
        return W, [W.apex + W.dir1 * a + W.dir2 * b for a, b in
                   ((1, 1), (2, HALF), (HALF, 3), (3, 2), (Fraction(5, 11), 0))]
    if name == "plane":
        return None, BRANCH_SCENES["dyadic"][1]
    return invariant_scene(name)


FRAME_SCENES = INVARIANT_SCENES + ["past-2^1100", "fixture-wedge", "fraction-wedge", "plane"]


@pytest.mark.parametrize("scene", FRAME_SCENES)
def test_frame_scales_the_scene_as_the_oracle(scene):
    region, guards = frame_scene(scene)
    scale, gx, gy, halfplanes = oracles.scene_oracle(region, guards)
    frame = _Frame(region, guards)
    assert frame.scale == scale
    assert frame.ints == list(zip(gx, gy))
    assert _halfplanes(region, frame.walls) == halfplanes
    assert (len(halfplanes) == 0) == (region is None)
    if scene == "past-2^1100":
        assert min(x for x, _ in frame.ints).bit_length() > 1100


@pytest.mark.parametrize("scene", INVARIANT_SCENES + ["plane"])
def test_pieces_come_from_one_clip_per_line(scene, monkeypatch):
    # the former loop clipped every dark portion on its own; the analysis
    # clips each guard line once, from its first member, and cuts the same
    # pieces, in the same order, from that one clip.  The clips of all lines
    # come from one float pass (_clip_lines): _clip itself runs only on the
    # lines that pass leaves open, each at most once, in line order
    region, guards = frame_scene(scene)
    calls = []

    def spy(*args):
        calls.append(args[:5])
        return _clip(*args)

    monkeypatch.setattr(darkness, "_clip", spy)
    analysis = darkness._Analysis(region, GuardSet(guards))
    assert list(analysis.pieces) == oracles.pieces_oracle(analysis)
    ints = analysis.frame.ints
    lines = iter([(*ints[members[0][1]], 1, ux, uy) for ux, uy, _, members in analysis.lines])
    assert all(call in lines for call in calls)
    if scene == "plane":
        assert sum(p[4] is None for p in analysis.pieces) == 2 * len(analysis.lines)


# --- one float clip pass for every guard line -------------------------------


def _clip_loop(starts, dirs, halfplanes):
    return [_clip(x, y, 1, dx, dy, halfplanes) for (x, y), (dx, dy) in zip(starts, dirs)]


def _clip_pass(monkeypatch, starts, dirs, halfplanes):
    """(ends, fallbacks): _clip_lines' ends, checked against a loop of
    _clip, and the indices of the lines it sent to _clip itself.  Each
    end's float bound T +- E holds its exact parameter, and the lines
    sent to _clip are the ones marked clipped."""
    lines = list(zip(starts, dirs))
    fallbacks = []

    def spy(X, Y, W, dx, dy, hps):
        fallbacks.append(lines.index(((X, Y), (dx, dy))))
        return _clip(X, Y, W, dx, dy, hps)

    with monkeypatch.context() as m:
        m.setattr(darkness, "_clip", spy)
        ends = oracles.clip_lines_ends(starts, dirs, halfplanes)
        fallbacks.clear()
        _, T, E, clipped = darkness._clip_lines(starts, dirs, halfplanes)
    assert ends == _clip_loop(starts, dirs, halfplanes)
    assert [lines[l] for l in np.nonzero(clipped)[0]] == [lines[l] for l in fallbacks]
    for l, line in enumerate(ends):
        for s, end in enumerate(line):
            if end is not None:
                t, e = float(T[s, l]), float(E[s, l])
                assert e == inf or abs(Fraction(end[0], end[1]) - Fraction(t)) <= Fraction(e)
    return ends, fallbacks


@pytest.mark.parametrize("scene", FRAME_SCENES)
def test_clip_lines_is_a_loop_of_clip(scene, monkeypatch):
    # every end tuple as _clip gives it, the halfplane that sets it included
    region, guards = frame_scene(scene)
    analysis = darkness._Analysis(region, GuardSet(guards))
    ints = analysis.frame.ints
    starts = [ints[members[0][1]] for _, _, _, members in analysis.lines]
    dirs = [(ux, uy) for ux, uy, _, _ in analysis.lines]
    _, fallbacks = _clip_pass(monkeypatch, starts, dirs, analysis.halfplanes)
    if scene == "past-2^1100":
        # no float survives: every line is clipped exactly
        assert fallbacks == list(range(len(starts)))
    elif scene == "plane":
        assert not analysis.halfplanes and not fallbacks
    else:
        assert len(fallbacks) < len(starts)


def test_clip_lines_sends_ties_to_clip(monkeypatch):
    # through a vertex two halfplanes set one end; along an edge and
    # parallel to one, a rate is exactly 0 and settles nothing
    square = ConvexPolygon([Point2(0, 0), Point2(12, 0), Point2(12, 12), Point2(0, 12)])
    hps = _halfplanes(square, _Frame(square, []).walls)
    starts = [(6, 6), (6, 6), (0, 6), (12, 6), (3, 5), (6, 6)]
    dirs = [(1, 1), (1, 0), (0, 1), (0, -1), (2, 7), (-1, 1)]
    ends, fallbacks = _clip_pass(monkeypatch, starts, dirs, hps)
    assert fallbacks == [0, 5]
    # t in [-6, 6] from the left and right edges, as unreduced (r, rate)
    assert ends[1] == ((-72, 12, 3), (72, 12, 1))


def test_clip_lines_sends_unsure_signs_to_clip(monkeypatch):
    # at 2**60 a rate of 0 from two large terms is no longer certain in
    # floats: the line parallel to the hypotenuse goes to _clip, the
    # others keep their single candidates
    L = 2 ** 60
    tri = ConvexPolygon([Point2(0, 0), Point2(L, 0), Point2(L, L)])
    hps = _halfplanes(tri, _Frame(tri, []).walls)
    start = (3 * L // 4, L // 4)
    starts = [start] * 3
    dirs = [(1, 1), (1, 5), (2, -1)]
    _, fallbacks = _clip_pass(monkeypatch, starts, dirs, hps)
    assert fallbacks == [0]


def test_clip_lines_sends_overflow_to_clip(monkeypatch):
    L = 2 ** 1030
    square = ConvexPolygon([Point2(0, 0), Point2(L, 0), Point2(L, L), Point2(0, L)])
    hps = _halfplanes(square, _Frame(square, []).walls)
    starts = [(L // 2, L // 3), (1, 1)]
    dirs = [(1, 2), (3, 1)]
    _, fallbacks = _clip_pass(monkeypatch, starts, dirs, hps)
    assert fallbacks == [0, 1]


@pytest.mark.parametrize("seed", range(6))
def test_clip_lines_through_vertices_and_lattice_points(seed, monkeypatch):
    # lines between lattice points of a random polygon and its vertices
    # pass through vertices and run along edges often
    rng = random.Random(seed)
    P = random_convex_polygon(rng, rng.choice((3, 5, 8)), size=24)
    hps = _halfplanes(P, P.ints)
    inside = [(x, y) for x in range(25) for y in range(25)
              if P.where(Point2(x, y)) != "exterior"]
    starts, dirs = [], []
    for _ in range(200):
        (x, y), (u, v) = rng.sample(inside, 2)
        starts.append((x, y))
        dirs.append((u - x, v - y))
    _clip_pass(monkeypatch, starts, dirs, hps)
    _clip_pass(monkeypatch, [], [], hps)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.fractions(max_denominator=40), st.fractions(max_denominator=40))
@example(Fraction(0), Fraction(3, 7))
@example(Fraction(0), Fraction(-5))
@example(Fraction(-2, 9), Fraction(0))
@example(Fraction(4), Fraction(0))
def test_forward_step_is_the_former_int_direction(x, y):
    d = Point2(x, y)
    if d.is_zero():
        return
    step = _forward_step(d)
    assert (step.x, step.y) == oracles.int_direction_oracle(d)


def test_the_exact_engine_refuses_a_simple_polygon():
    P = SimplePolygon([Point2(0, 0), Point2(4, 0), Point2(4, 4), Point2(0, 4)])
    with pytest.raises(TypeError):
        max_darkness(P, [Point2(1, 1), Point2(2, 2), Point2(3, 3)])
    with pytest.raises(TypeError):
        _Frame("not a region", [Point2(1, 1)])


def test_max_darkness_rescans_only_the_witness(monkeypatch):
    # guard points are counted from their lines and crossings summed from
    # their pieces: the reported witness is the one point rescanned
    region, guards = lattice_octagon()
    analysis = darkness._Analysis(region, GuardSet(guards))
    points = oracles.crossing_totals(analysis)

    calls = []
    rescan = darkness._Analysis.darkness_at_scaled

    def spy(self, xn, yn, den):
        calls.append((xn, yn, den))
        return rescan(self, xn, yn, den)

    monkeypatch.setattr(darkness._Analysis, "darkness_at_scaled", spy)
    w = max_darkness(region, guards)
    assert len(points) > 10 * len(guards)
    assert len(calls) == 1 and calls[0] in points
    assert analysis.frame.point(calls[0]) == w.point
    assert oracles.darkness_oracle(guards, w.point) == w.darkness


@pytest.mark.parametrize("scene", [lattice_octagon, concurrent_star])
def test_has_j_dark_reads_crossing_darkness(monkeypatch, scene):
    region, guards = scene()
    analysis = darkness._Analysis(region, GuardSet(guards))
    points = oracles.crossing_totals(analysis)
    dark = {key: oracles.darkness_oracle(guards, analysis.frame.point(key))
            for key in points}
    top = max(dark.values())
    # the pieces and guard points reach only lower levels, so the top j
    # are settled at crossings
    below = max([p[7] for p in analysis.pieces]
                + [oracles.darkness_oracle(guards, g) for g in guards])
    assert below < top

    calls = []
    rescan = darkness._Analysis.darkness_at_scaled

    def spy(self, xn, yn, den):
        calls.append((xn, yn, den))
        return rescan(self, xn, yn, den)

    monkeypatch.setattr(darkness._Analysis, "darkness_at_scaled", spy)
    assert_scan_matches_the_oracle(analysis.pieces)
    for j in range(3, top + 2):
        calls.clear()
        found, witness = has_j_dark(region, guards, j)
        # one rescan, at the reported witness, and none without one
        rescanned = [key for key in calls if key in points]
        assert found == (j <= top), j
        if not found:
            assert not calls, j
            continue
        assert oracles.darkness_oracle(guards, witness.point) == witness.darkness >= j
        assert [analysis.frame.point(key) for key in calls] == [witness.point], j
        if j > below:
            first = next(key for key in points if dark[key] >= j)
            assert witness.point == analysis.frame.point(first), j
            assert rescanned == [first], j


def witness_facts(witness):
    if witness is None:
        return None
    return (witness.point, witness.darkness,
            [(tuple(gl.member_indices), cnt) for gl, cnt in witness.contributing_lines])


def guard_corner():
    """Three 3-guard lines end at the origin guard: its darkness 3 tops
    every piece's blocked count (2), and crossings reach 3 too, so the
    guard points must be read before the crossings."""
    region = ConvexPolygon([Point2(-10, -10), Point2(10, -10), Point2(10, 10), Point2(-10, 10)])
    corner = [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (1, 1), (2, 2)]
    return region, [Point2(x, y) for x, y in corner]


ROW_WALK_SCENES = {"concurrent-star": concurrent_star, "guard-corner": guard_corner}


@pytest.mark.parametrize("scene", INVARIANT_SCENES + sorted(ROW_WALK_SCENES))
def test_has_j_dark_matches_the_row_walk(scene):
    make = ROW_WALK_SCENES.get(scene, lambda: invariant_scene(scene))
    region, guards = make()
    gs = GuardSet(guards)
    top = max_darkness(region, gs).darkness
    for j in range(1, top + 2):
        found, witness = has_j_dark(region, gs, j)
        want, want_witness = oracles.has_j_dark_oracle(region, guards, j)
        assert found == want == (j <= top), j
        assert witness_facts(witness) == witness_facts(want_witness), j


# --- the float-certified scan and the crossing table ---------------------------
#
# _pair_scan calls most pairs a certain hit or a certain miss in floats
# and confirms only the unsure ones; the crossing table groups hits by
# their float parameters and compares exactly only overlapping ones; the
# witness is chosen on float x bounds, with exact points only for the
# candidates that may be leftmost.  Each must give exactly the answers of
# the exact walks in tests/oracles.py.


def open_end_meeting():
    """Three 3-guard lines whose gap pieces all end open at the guard
    (4, 4), the far end they share."""
    region = ConvexPolygon([Point2(-2, -2), Point2(8, -2), Point2(8, 8), Point2(-2, 8)])
    return region, [Point2(x, y) for x, y in
                    ((0, 4), (2, 4), (4, 4), (4, 0), (4, 2), (0, 0), (2, 2), (1, 6), (6, 1))]


def parallel_rows():
    """Three parallel rows of guards, crossed by two slanted pairs."""
    region = ConvexPolygon([Point2(-6, -6), Point2(12, -6), Point2(12, 12), Point2(-6, 12)])
    rows = [Point2(x, y) for y in (0, 2, 5) for x in (0, 3, 7)]
    return region, rows + [Point2(1, 1), Point2(2, 4), Point2(6, 1), Point2(5, 4)]


def concurrent_four():
    """Four guard pairs whose dark rays meet at the rational point c,
    among guards that bring other crossings near it."""
    c = Point2(Fraction(1, 3), Fraction(2, 7))
    region = ConvexPolygon([Point2(-20, -20), Point2(20, -20), Point2(20, 20), Point2(-20, 20)])
    guards = [c + d * s for d in (Point2(1, 2), Point2(-3, 1), Point2(2, -5), Point2(4, 1))
              for s in (1, 2)]
    return region, guards + [Point2(Fraction(7, 3), 5), Point2(-4, Fraction(-9, 7))]


def near_2_60():
    """Guards a few units apart near x = 2**60, in a square there: every
    x in it rounds to the one float 2**60, so distinct top-level
    crossings tie on floats and the witness is found exactly."""
    b = 2 ** 60
    region = ConvexPolygon([Point2(b - 64, -64), Point2(b + 64, -64), Point2(b + 64, 64),
                            Point2(b - 64, 64)])
    rng = random.Random(60)
    guards = []
    while len(guards) < 8:
        p = Point2(b + rng.randint(-30, 30), rng.randint(-30, 30))
        if p not in guards:
            guards.append(p)
    return region, guards


@functools.lru_cache(maxsize=None)
def placement_4n_minus_2_octagon():
    """A full 4n-2 placement on a random 8-gon (30 guards)."""
    P = random_convex_polygon(random.Random(8), 8)
    return P, list(place_4n_minus_2(P)[0])


def lattice_columns():
    """Three columns of five guards: the pieces of a column all start at
    its x, and the pieces that leave through the left wall at x = 0, so
    many pieces tie on the left end of their x-span."""
    region = ConvexPolygon([Point2(0, 0), Point2(12, 0), Point2(12, 12), Point2(0, 12)])
    return region, [Point2(x, y) for x in (3, 6, 10) for y in (1, 3, 6, 8, 11)]


SCAN_SCENES = {
    "lattice-columns": lattice_columns,
    "open-end-meeting": open_end_meeting,
    "parallel-rows": parallel_rows,
    "concurrent-four": concurrent_four,
    "concurrent-star": concurrent_star,
    "near-2^60": near_2_60,
    "past-2^1100": lambda: frame_scene("past-2^1100"),
    "4n-2-octagon": placement_4n_minus_2_octagon,
}
TABLE_SCENES = sorted(BRANCH_SCENES) + ["4n-2"] + sorted(SCAN_SCENES)


def table_scene(name):
    return SCAN_SCENES[name]() if name in SCAN_SCENES else invariant_scene(name)


def _within(lo, value, hi):
    """lo <= value <= hi for floats lo, hi (-inf / inf allowed) and an
    exact value."""
    return (lo == -inf or Fraction(lo) <= value) and (hi == inf or value <= Fraction(hi))


def assert_table_matches_the_oracle(analysis):
    """The crossing table against crossings_oracle: the same points in
    the same order, each with the oracle's total and piece count; and
    every float bound of the scan holds the exact value it bounds."""
    pieces = analysis.pieces
    assert_scan_matches_the_oracle(pieces)
    points, _ = oracles.crossings_oracle(pieces)
    totals = oracles.crossing_totals(analysis)
    assert list(totals) == list(points)
    assert list(totals.values()) == [sum(pieces[k][7] for k in ids) for ids in points.values()]
    I, J, XL, XU, _, count = analysis.crossings()
    assert count.tolist() == [len(ids) for ids in points.values()]
    for key, xl, xu in zip(totals, XL.tolist(), XU.tolist()):
        assert _within(xl, Fraction(key[0], key[2]), xu)
    # the parameters on both pieces of each hit, T +- E and V +- EV
    I, J, T, E, V, EV = darkness._pair_scan(pieces, analysis.columns())
    with np.errstate(over="ignore", invalid="ignore"):
        bounds = (T - E, T + E, V - EV, V + EV)
    for i, j, tl, th, vl, vh in zip(I.tolist(), J.tolist(), *(b.tolist() for b in bounds)):
        un, vn, D = darkness._confirm(pieces[i], pieces[j])
        assert tl != tl or th != th or _within(tl, Fraction(un, D), th)
        assert vl != vl or vh != vh or _within(vl, Fraction(vn, D), vh)
    return points


def darkest_oracle(analysis):
    """(top, point): the maximum darkness over the complete candidate
    set and the lexicographically smallest point at it."""
    complete = complete_candidates(analysis)
    top = max(c[0] for c in complete)
    return top, min((analysis.frame.point(c[1:]) for c in complete if c[0] == top),
                    key=lambda p: (p.x, p.y))


@pytest.mark.parametrize("scene", TABLE_SCENES)
def test_crossing_table_and_witnesses_match_the_oracles(scene):
    region, guards = table_scene(scene)
    analysis = darkness._Analysis(region, GuardSet(guards))
    points = assert_table_matches_the_oracle(analysis)
    assert_table_matches_the_oracle(darkness._Analysis(None, GuardSet(guards)))
    assert find_concurrent_dark_rays(guards) == oracles.find_concurrent_dark_rays_oracle(guards)
    gs = GuardSet(guards)
    w = max_darkness(region, gs)
    assert (w.darkness, w.point) == darkest_oracle(analysis)
    for j in range(1, w.darkness + 2):
        found, witness = has_j_dark(region, gs, j)
        want, want_witness = oracles.has_j_dark_oracle(region, guards, j)
        assert found == want == (j <= w.darkness), j
        assert witness_facts(witness) == witness_facts(want_witness), j
    if scene == "near-2^60":
        # distinct top-level crossings whose x are one float
        top = [k for k, t in oracles.crossing_totals(analysis).items() if t == w.darkness]
        assert len({Fraction(X, W) for X, _, W in top}) > 1
        assert len({_nearest(X, W) for X, _, W in top}) == 1
    if scene == "open-end-meeting":
        shared = [p for p in analysis.pieces if p[6] and (p[0] + p[4] * p[2], p[1] + p[4] * p[3])
                  == analysis.frame.ints[2]]
        assert len(shared) == 3
    if scene in ("concurrent-four", "concurrent-star"):
        assert max(len(ids) for ids in points.values()) >= 4


@pytest.mark.parametrize("scene", TABLE_SCENES)
def test_darkest_candidate_bounds_hold_their_exact_x(scene, monkeypatch):
    # every candidate darkest hands _leftmost (crossings, guards, then top
    # pieces at T = h/2 or 1, read from the columns) has float x bounds
    # that hold its exact x, so the tie-break never drops the leftmost
    region, guards = table_scene(scene)
    analysis = darkness._Analysis(region, GuardSet(guards))
    calls, leftmost = [], darkness._leftmost
    monkeypatch.setattr(darkness, "_leftmost",
                        lambda lo, hi, key: calls.append((lo, hi, key)) or leftmost(lo, hi, key))
    analysis.darkest()
    [(lo, hi, key)] = calls
    assert len(lo) == len(hi) > 0
    for k, (l, h) in enumerate(zip(lo.tolist(), hi.tolist())):
        X, _, W = key(k)
        assert _within(l, Fraction(X, W), h), k


def test_scan_settles_far_ends_exactly():
    # hand-built pieces: a bounded piece along y = 0 that a vertical piece
    # crosses exactly at its far end (4, 0), open there (strict) or
    # closed, and just before and past it at 7/2 and 9/2 on a second pair
    vertical = (4, -3, 0, 1, None, None, False, 1, 1)
    for strict in (True, False):
        pieces = [(0, 0, 1, 0, 4, 1, strict, 1, 0), vertical,
                  (0, 10, 1, 0, 7, 2, strict, 1, 2), (0, 10, 1, 0, 9, 2, strict, 1, 3)]
        hits = assert_scan_matches_the_oracle(pieces)
        assert [(i, j) for i, j, *_ in hits] == ([] if strict else [(0, 1)]) + [(1, 3)]


# --- the piece columns against the exact pieces ------------------------------
#
# The analysis builds its pieces as columns from the guard indices and the
# clip pass's float parameters, and a piece's exact tuple only where it is
# read.  oracles.column_faults checks the columns against the tuples: the
# far parameters and boxes hold the exact values, and the class numberings
# are those of the former builders (oracles.piece_columns).


def column_scene(name):
    if name == "guard-corner":
        return guard_corner()
    if name in ("fixture-wedge", "fraction-wedge"):
        return frame_scene(name)
    return table_scene(name)


COLUMN_SCENES = TABLE_SCENES + ["guard-corner", "fixture-wedge", "fraction-wedge"]


@pytest.mark.parametrize("scene", COLUMN_SCENES)
def test_piece_columns_hold_the_exact_pieces(scene):
    region, guards = column_scene(scene)
    for analysis in (darkness._Analysis(region, GuardSet(guards)),
                     darkness._Analysis(None, GuardSet(guards))):
        columns = analysis.columns()
        assert oracles.column_faults(analysis.pieces, columns) == []
        # the rays dropped are exactly those that end at their own anchor
        assert list(analysis.pieces) == oracles.pieces_oracle(analysis)
        rows = np.nonzero(columns.unbounded)[0]
        assert oracles.column_faults(analysis.pieces.take(rows), columns.take(rows)) == []
    if scene in ("4n-2", "corner", "far-ends"):
        # guards on edges and at vertices: some rays end where they start
        region_analysis = darkness._Analysis(region, GuardSet(guards))
        rays = 2 * len(region_analysis.lines)
        gaps = sum(len(rec[3]) - 1 for rec in region_analysis.lines if len(rec[3]) >= 3)
        assert len(region_analysis.pieces) < rays + gaps


# _confirm calls of one _pair_scan over each TABLE_SCENES analysis's
# pieces, as the tiled scan over the whole pair triangle made them: the
# sweep keeps the same pairs and leaves the same ones unsure
TILED_SCAN_CONFIRMS = {
    "4n-2": 0, "4n-2-octagon": 0, "big-denominator": 0, "box-edge": 1, "concurrent-four": 0,
    "concurrent-star": 4, "corner": 5, "dyadic": 0, "far-ends": 4, "lattice": 1,
    "lattice-columns": 15, "near-2^60": 462, "no-two-dark": 0, "nudged-2^53": 75,
    "nudged-2^53+1": 73, "open-end-meeting": 12, "parallel-rows": 12, "past-2^1100": 1386,
    "two-dark": 1, "wedge": 0,
}


@pytest.mark.parametrize("scene", TABLE_SCENES)
def test_the_sweep_scans_the_same_pairs_at_every_chunk_budget(scene, monkeypatch):
    # _x_overlaps yields every pair whose x-spans overlap once, in whole
    # runs of at most _CHUNK pairs unless one run alone is longer; the
    # scan over its chunks returns the same arrays, in (i, j) order, at
    # the default budget and at 1 and 7 pairs, with the tiled scan's
    # _confirm calls.  The scenes hold ties on lox (lattice-columns),
    # unbounded pieces (wedge) and boxes at +-inf (past-2^1100)
    region, guards = table_scene(scene)
    pieces = darkness._Analysis(region, GuardSet(guards)).pieces
    cols = oracles.piece_columns(pieces)
    lox, hix = cols.lox, cols.hix
    overlap = np.triu((lox[None, :] <= hix[:, None]) & (lox[:, None] <= hix[None, :]), 1)
    want = list(zip(*(a.tolist() for a in np.nonzero(overlap))))
    sweep, confirm = darkness._x_overlaps, darkness._confirm
    results = []
    for budget in (darkness._CHUNK, 1, 7):
        monkeypatch.setattr(darkness, "_CHUNK", budget)
        chunks, calls = [], []
        monkeypatch.setattr(darkness, "_x_overlaps",
                            lambda lo, hi: (chunks.append(c) or c for c in sweep(lo, hi)))
        monkeypatch.setattr(darkness, "_confirm", lambda p, q: calls.append(1) or confirm(p, q))
        results.append(darkness._pair_scan(pieces, cols))
        pairs = [(min(p, q), max(p, q)) for P, Q in chunks
                 for p, q in zip(P.tolist(), Q.tolist())]
        assert sorted(pairs) == want
        rows = [set(P.tolist()) for P, _ in chunks]
        assert all(len(P) <= budget or len(r) == 1 for (P, _), r in zip(chunks, rows))
        assert sum(map(len, rows)) == len(set().union(*rows))
        assert len(chunks) > 1 or len(want) <= budget  # 4n-2-octagon: 17,437 pairs
        if budget == 7 and len(want) > 7:
            assert any(len(r) > 1 for r in rows)
        assert len(calls) == TILED_SCAN_CONFIRMS[scene]
    I, J = results[0][:2]
    assert all(a < b for a, b in zip(zip(I.tolist(), J.tolist()), zip(I[1:].tolist(), J[1:].tolist())))
    assert (I < J).all()
    for other in results[1:]:
        assert [a.tobytes() for a in other] == [a.tobytes() for a in results[0]]
    if scene == "lattice-columns":
        assert len(lox) - len(set(lox.tolist())) > len(lox) // 2
    if scene == "wedge":
        assert np.isinf(hix).any() and np.isinf(cols.hiy).any()
    if scene == "past-2^1100":
        # most pieces start past the float range, and tie there
        assert np.isinf(lox).sum() > len(lox) // 2


def test_the_sweep_of_no_piece_and_of_one_piece_yields_nothing():
    for lox, hix in (([], []), ([1.0], [2.0]), ([-inf], [inf])):
        assert list(darkness._x_overlaps(np.array(lox), np.array(hix))) == []


# --- collinear grouping against its former body ------------------------------


def square_lattice(m, step=3):
    """The m x m lattice of the given step: rows, columns and diagonals of
    m guards, and shorter lines of every slope between them."""
    region = ConvexPolygon([Point2(-1, -1), Point2(m * step, -1), Point2(m * step, m * step),
                            Point2(-1, m * step)])
    return region, [Point2(step * x, step * y) for x in range(m) for y in range(m)]


GROUPING_SCENES = {
    "lattice-3": lambda: BRANCH_SCENES["lattice"],
    "lattice-4": lambda: square_lattice(4),
    "lattice-5": lambda: square_lattice(5),
    "lattice-columns": lattice_columns,
    "lattice-8gon": lattice_octagon,
    "concurrent-star": concurrent_star,
    "4n-2": placement_4n_minus_2,
    **{name: (lambda name=name: BRANCH_SCENES[name])
       for name in ("two-dark", "no-two-dark", "dyadic", "big-denominator", "box-edge",
                    "nudged-2^53+1", "wedge")},
}
LONGEST_LINE = {"lattice-3": 3, "lattice-4": 4, "lattice-5": 5, "lattice-columns": 5}


@pytest.mark.parametrize("scene", sorted(GROUPING_SCENES))
def test_group_collinear_matches_the_oracle(scene):
    # the records, their order and their parameters are those of the
    # former body, one dict of member sets updated per pair, under the
    # scene's guard order and its reverse
    _, guards = GROUPING_SCENES[scene]()
    pts = _integers(guards)[1]
    for order in (pts, pts[::-1]):
        records = darkness._group_collinear(order)
        assert records == oracles.group_collinear_oracle(order)
    if scene in LONGEST_LINE:
        assert max(len(rec[3]) for rec in records) == LONGEST_LINE[scene]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=24,
                unique=True),
       st.sampled_from([(1, 0), (-7, 3), (2 ** 70 + 1, 2 ** 64)]))
def test_group_collinear_matches_the_oracle_on_lattice_subsets(cells, affine):
    # subsets of a 6 x 6 lattice, scaled by k and shifted by s
    k, shift = affine
    pts = [(k * x + shift, k * y - shift) for x, y in cells]
    assert darkness._group_collinear(pts) == oracles.group_collinear_oracle(pts)


def _count_exact_calls(monkeypatch, names=("_confirm", "_point_key")):
    counts = dict.fromkeys(names, 0)
    for name in names:
        def spy(*args, _name=name, _real=getattr(darkness, name)):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(darkness, name, spy)
    return counts


@pytest.mark.parametrize("scene, want", [
    ("lattice-8gon", {"_confirm": 36, "_point_key": 3}),
    ("general-position-20", {"_confirm": 2, "_point_key": 2}),
    ("concurrent-star", {"_confirm": 21, "_point_key": 4}),
    ("4n-2", {"_confirm": 0, "_point_key": 0}),
])
def test_certificates_build_few_exact_values(monkeypatch, scene, want):
    # max_darkness and has_j_dark for every j up to top + 1: _confirm runs
    # on unsure pairs and on near-tied hits only, and _point_key only for
    # a reported or exactly compared crossing
    region, guards = {"lattice-8gon": lattice_octagon, "general-position-20": general_position_20,
                      "concurrent-star": concurrent_star,
                      "4n-2": placement_4n_minus_2}[scene]()
    gs = GuardSet(guards)
    counts = _count_exact_calls(monkeypatch)
    top = max_darkness(region, gs).darkness
    for j in range(1, top + 2):
        has_j_dark(region, gs, j)
    assert counts == want


def test_one_extra_construct_builds_only_the_pieces_it_reads(monkeypatch, tmp_path):
    # the seed-1 one-extra ops of the convex-construct benchmark: an exact
    # piece is built only where _confirm or _piece_point reads it, once,
    # and columns(), has_j_dark and _prefix build none
    monkeypatch.syspath_prepend(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from perfbench import harness
    from perfbench.scenes import scenes_for

    built, read = [], []
    build, confirm, point = darkness._Pieces._build, darkness._confirm, darkness._piece_point
    monkeypatch.setattr(darkness._Pieces, "_build",
                        lambda self, k: built.append(build(self, k)) or built[-1])
    monkeypatch.setattr(darkness, "_confirm", lambda p, q: read.extend((p, q)) or confirm(p, q))
    monkeypatch.setattr(darkness, "_piece_point",
                        lambda piece, *bounds: read.append(piece) or point(piece, *bounds))
    during = {"columns": 0, "has_j_dark": 0, "_prefix": 0}

    def counted(name, real):
        def spy(*args):
            before = len(built)
            try:
                return real(*args)
            finally:
                during[name] += len(built) - before
        return spy

    construct_module = importlib.import_module("darkgallery.construct")
    monkeypatch.setattr(darkness._Analysis, "columns",
                        counted("columns", darkness._Analysis.columns))
    monkeypatch.setattr(cli, "has_j_dark", counted("has_j_dark", cli.has_j_dark))
    monkeypatch.setattr(construct_module, "_prefix", counted("_prefix", construct_module._prefix))
    scenes = scenes_for("convex-construct", harness.DEFAULT_SEED)
    prepared = harness.prepare(scenes, str(tmp_path / "work"))
    picked = [i for i, s in enumerate(scenes) if s.label.startswith("one-extra-")]
    assert len(picked) == 79
    for i in picked:
        assert harness.run_op(cli, prepared[i], i).error is None
    assert len(built) > 0
    assert {id(p) for p in built} == {id(p) for p in read}
    assert during == {"columns": 0, "has_j_dark": 0, "_prefix": 0}


# --- one analysis per guard set ---------------------------------------------


# what an analysis holds, built or derived
ANALYSIS_FIELDS = {"region", "guards", "frame", "halfplanes", "lines", "pieces", "_crossings",
                   "_darkest", "_long"}


@pytest.fixture
def count_scans(monkeypatch):
    """Call to start counting _Analysis builds and _pair_scan calls, the
    certificates' (through _crossing_table) and the sampler's (through
    sampling._candidates) alike."""
    def start():
        counts = {"builds": 0, "scans": 0}
        build, scan = darkness._Analysis.__init__, darkness._pair_scan

        def counted_build(self, region, gset):
            counts["builds"] += 1
            build(self, region, gset)

        def counted_scan(pieces, boxes):
            counts["scans"] += 1
            return scan(pieces, boxes)

        monkeypatch.setattr(darkness._Analysis, "__init__", counted_build)
        monkeypatch.setattr(darkness, "_pair_scan", counted_scan)
        monkeypatch.setattr(sampling, "_pair_scan", counted_scan)
        return counts
    return start


def test_queries_on_one_guard_set_share_one_analysis(count_scans):
    region, guards = placement_4n_minus_2()
    gs = GuardSet(guards)
    scan_counts = count_scans()
    assert min_depth(region, gs).max_darkness == 1
    assert has_j_dark(region, gs, 2) == (False, None)
    assert has_j_dark(region, gs, 3) == (False, None)
    assert scan_counts == {"builds": 1, "scans": 1}


def test_certificates_scan_once_and_keep_only_totals(count_scans):
    # crossings here stack up to darkness 5, so the walk sums totals over
    # several hits per key; no per-piece crossing parameters are kept
    region, guards = concurrent_star()
    gs = GuardSet(guards)
    scan_counts = count_scans()
    assert min_depth(region, gs).max_darkness == 5
    assert has_j_dark(region, gs, 2)[0] and has_j_dark(region, gs, 3)[0]
    assert scan_counts == {"builds": 1, "scans": 1}
    assert set(gs._analysis.__dict__) == ANALYSIS_FIELDS
    assert gs._analysis.crossings()[4].dtype == np.int64
    assert all(type(total) is int for total in oracles.crossing_totals(gs._analysis).values())


def test_candidates_first_scans_once(count_scans):
    region, guards = lattice_octagon()
    scan_counts = count_scans()
    analysis = darkness._Analysis(region, GuardSet(guards))
    cands = oracles.point_candidates(analysis)
    analysis.crossings()
    oracles.point_candidates(analysis)
    assert scan_counts == {"builds": 1, "scans": 1}
    assert len(cands) == len(analysis.crossings()[0]) + len(guards) > len(guards)


def test_sample_depth_scans_once(count_scans):
    comb = make_comb(3)
    gs = comb_cover(comb, 4)
    scan_counts = count_scans()
    report = sample_depth(comb.polygon, gs, sampler=("grid", 6))
    assert scan_counts == {"builds": 1, "scans": 1}
    assert len(report.samples) > len(comb.polygon.vertices) + len(gs)


def test_exact_verify_scans_once_for_every_j(count_scans, tmp_path, capsys):
    region, guards = placement_4n_minus_2()
    path = str(tmp_path / "placement.json")
    PlacementDocument(region, GuardSet(guards)).save(path)
    scan_counts = count_scans()
    argv = ["verify", "--region", path, "--guards", path, "--j", "2", "--j", "3"]
    assert cli.main(argv + ["--format", "json"]) == cli.EXIT_OK
    cert = json.loads(capsys.readouterr().out)
    assert [(r["j"], r["found"]) for r in cert["j_dark"]] == [(2, False), (3, False)]
    assert scan_counts == {"builds": 1, "scans": 1}


def _count_attempts(monkeypatch):
    """Count the max_darkness calls construct.py makes: one per scaffold
    attempt, then construct's check of the prefix."""
    calls = []
    construct_module = importlib.import_module("darkgallery.construct")
    certify = construct_module.max_darkness
    monkeypatch.setattr(construct_module, "max_darkness",
                        lambda region, guards: calls.append(1) or certify(region, guards))
    return calls


def test_one_extra_construct_certifies_its_prefix_once(count_scans, monkeypatch, tmp_path, capsys):
    # only the scaffold attempts build and scan an analysis: the prefix's
    # is derived from the accepted attempt's, and construct's check, the
    # CLI's min_depth and has_j_dark read it
    region, _ = placement_4n_minus_2()
    path = str(tmp_path / "region.json")
    with open(path, "w") as fh:
        json.dump(region_to_dict(region), fh)
    calls = _count_attempts(monkeypatch)
    scan_counts = count_scans()
    out = str(tmp_path / "out.json")
    argv = ["construct", "--shape", path, "--k", "7", "--out", out, "--format", "json"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    with open(out) as fh:
        assert "placement" in fh.read()
    attempts = len(calls) - 1
    assert attempts >= 1
    assert scan_counts == {"builds": attempts, "scans": attempts}


def test_library_construct_scans_once_per_attempt(count_scans, monkeypatch):
    region, _ = placement_4n_minus_2()
    calls = _count_attempts(monkeypatch)
    scan_counts = count_scans()
    gs = construct(region, 7)
    attempts = len(calls) - 1
    assert len(gs) == 8 and attempts >= 1
    assert scan_counts == {"builds": attempts, "scans": attempts}
    assert min_depth(region, gs).min_depth >= 7
    assert has_j_dark(region, gs, 2) == (False, None)
    assert scan_counts == {"builds": attempts, "scans": attempts}
    # the derived analysis holds what a built one holds, and no more
    assert set(gs._analysis.__dict__) == ANALYSIS_FIELDS
    assert gs._analysis.crossings()[4].dtype == np.int64


def test_a_guard_set_follows_the_region_it_is_asked_about():
    region, guards = lattice_octagon()
    around = ConvexPolygon([Point2(-60, -60), Point2(120, -60), Point2(120, 120), Point2(-60, 120)])

    def certificate(region, gs):
        w = max_darkness(region, gs)
        return (witness_facts(w), [witness_facts(has_j_dark(region, gs, j)[1]) for j in (2, 3, 8)],
                witness_facts(darkness_at(region, gs, Point2(6, 30))))

    fresh = [certificate(r, GuardSet(guards)) for r in (region, around)]
    assert fresh[0] != fresh[1]
    gs = GuardSet(guards)
    for r, want in zip((region, around) * 2, fresh * 2):
        assert certificate(r, gs) == want


def test_the_held_analysis_is_freed_by_reference_counting():
    region, guards = lattice_octagon()
    gs = GuardSet(guards)
    gc.disable()
    try:
        min_depth(region, gs)
        held = weakref.ref(gs._analysis)
        del gs
        assert held() is None
    finally:
        gc.enable()
    gs = GuardSet(guards)
    for name in ("guards", "_analysis", "other"):
        with pytest.raises(AttributeError):
            setattr(gs, name, None)


@pytest.mark.parametrize("scene", sorted(BRANCH_SCENES))
def test_min_depth_matches_the_oracle_on_every_branch(scene):
    region, guards = BRANCH_SCENES[scene]
    assert_scan_matches_the_oracle(darkness._Analysis(region, GuardSet(guards)).pieces)
    best, _ = oracles.max_darkness_oracle(region, guards)
    cert = min_depth(region, guards)
    assert cert.max_darkness == best
    assert cert.min_depth == len(guards) - best
    assert region.contains(cert.witness.point)
    assert oracles.darkness_oracle(guards, cert.witness.point) == best


# --- boundary census ----------------------------------------------------------

SQUARE = ConvexPolygon([Point2(0, 0), Point2(4, 0), Point2(4, 4), Point2(0, 4)])


def test_census_guards_at_vertices_plus_alternating_edges():
    guards = list(SQUARE.vertices) + [Point2(2, 0), Point2(2, 4)]
    cen = boundary_census(SQUARE, guards)
    assert cen.applicable
    assert cen.boundary_total == 6
    assert cen.darkened == 4
    assert cen.identity_holds
    assert sorted(str(w) for w in cen.edge_weights) == ["1", "1", "2", "2"]
    # oracle recount agrees edge by edge
    weights, darkedges, shrunken_ok = oracles.census_oracle(SQUARE, guards)
    assert weights == cen.edge_weights
    assert shrunken_ok
    assert sum(1 for d in darkedges if d) == 4
    assert all(len(d) <= 1 for d in darkedges)


def test_census_one_interior_guard_per_edge():
    guards = [Point2(2, 0), Point2(4, 2), Point2(2, 4), Point2(0, 2)]
    cen = boundary_census(SQUARE, guards)
    assert cen.applicable
    assert cen.boundary_total == 4
    assert cen.darkened == 0
    assert cen.identity_holds


def test_census_flags_a_2_dark_vertex():
    # both endpoints guarded on the bottom edge plus one interior guard
    # on each remaining edge: the apex is hidden from both sides
    T = ConvexPolygon([Point2(0, 0), Point2(6, 0), Point2(3, 6)])
    guards = [Point2(0, 0), Point2(6, 0), Point2(Fraction(9, 2), 3), Point2(Fraction(3, 2), 3)]
    cen = boundary_census(T, guards)
    assert not cen.applicable
    assert "2-dark" in " ".join(cen.reasons)
    # raw counts are still reported
    assert sorted(str(w) for w in cen.edge_weights) == ["1", "3/2", "3/2"]
    assert cen.boundary_total == 4
    assert cen.darkened_vertices == [2]  # the apex, counted once
    assert not cen.identity_holds
    assert max_darkness(T, guards).point == Point2(3, 6)


def test_census_requires_a_guard_on_every_edge():
    T = ConvexPolygon([Point2(0, 0), Point2(6, 0), Point2(3, 6)])
    cen = boundary_census(T, [Point2(3, 0), Point2(Fraction(9, 2), 3)])
    assert not cen.applicable
    assert any("edge" in r for r in cen.reasons)


def test_census_total_is_sum_of_edge_weights():
    rng = random.Random(41)
    for _ in range(6):
        P = random_convex_polygon(rng, rng.randint(3, 6))
        guards = []
        for i, v in enumerate(P.vertices):
            u = P.vertices[(i + 1) % len(P.vertices)]
            guards.append(v + (u - v) * Fraction(rng.randint(1, 7), 8))
            if rng.random() < 0.5:
                guards.append(v)
        cen = boundary_census(P, guards)
        assert cen.boundary_total == sum(cen.edge_weights, Fraction(0))
        weights, _, shrunken_ok = oracles.census_oracle(P, guards)
        assert weights == cen.edge_weights
        assert shrunken_ok


def census_scene(rng):
    """A convex polygon, often on a small grid, with guards at some
    vertices, one or zero to three per edge inside the edges, and
    sometimes interior guards, in a shuffled order."""
    P = random_convex_polygon(rng, rng.randint(3, 7), size=rng.choice((24, 420)))
    vs = P.vertices
    per_edge = rng.choice(((1,), (0, 1, 1, 2, 3)))
    guards = []
    for i, v in enumerate(vs):
        if rng.random() < 0.5:
            guards.append(v)
        u = vs[(i + 1) % len(vs)]
        for _ in range(rng.choice(per_edge)):
            guards.append(v + (u - v) * Fraction(rng.randint(1, 7), 8))
    if rng.random() < 0.3:
        guards += distinct_interior_points(rng, P, rng.randint(1, 2))
    guards = list(dict.fromkeys(guards)) or [vs[0]]
    rng.shuffle(guards)
    return P, guards


CENSUS_FIELDS = ("edge_weights", "edge_dark_rays", "darkened_vertices", "darkened",
                 "boundary_total", "n", "applicable", "reasons", "identity_holds")


def test_census_matches_the_fraction_census_on_seeded_scenes():
    rng = random.Random(2024)
    seen = set()
    for _ in range(240):
        P, guards = census_scene(rng)
        got = boundary_census(P, guards)
        want = oracles.boundary_census_oracle(P, guards)
        for field in CENSUS_FIELDS:
            assert getattr(got, field) == getattr(want, field), field
        assert all(type(w) is Fraction for w in got.edge_weights)
        seen.update(r.split(" ")[0] for r in got.reasons)
        seen.update(["applicable"] * got.applicable + ["darkened"] * (got.darkened > 0))
    # every branch of the census ran: interior guards, bare edges, 2-dark
    # placements, applicable ones and darkened vertices
    assert seen == {"guard", "edge", "placement", "applicable", "darkened"}


def test_census_refuses_outside_guards_and_other_regions():
    inside = [Point2(2, 0), Point2(4, 2)]
    for census in (boundary_census, oracles.boundary_census_oracle):
        with pytest.raises(ValueError, match=r"guard Point2\(5, 5\) lies outside the polygon"):
            census(SQUARE, inside + [Point2(5, 5)])
    wedge = Wedge(Point2(0, 0), Point2(1, 0), Point2(0, 1))
    with pytest.raises(TypeError, match="got Wedge"):
        boundary_census(wedge, inside)
    simple = SimplePolygon(list(SQUARE.vertices))
    with pytest.raises(TypeError, match="got SimplePolygon"):
        boundary_census(simple, inside)
