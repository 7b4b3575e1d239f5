"""The paper's lower bounds, checked by exhaustive search on small lattices.

The abstract's smallest case: a 4-cover of a triangle needs 5 guards.  No
4 guards reach depth 4, so ``plan``'s one-extra count is tight there, and
``construct`` reaches the depth with the count ``plan`` gives.
"""

from __future__ import annotations

import itertools

from darkgallery.construct import construct, plan
from darkgallery.darkness import min_depth
from darkgallery.geometry import ConvexPolygon, Point2

TRIANGLE = ConvexPolygon([Point2(0, 0), Point2(12, 0), Point2(0, 12)])

# the points of the triangle with both coordinates multiples of 3, and
# its centroid: the vertices, three points inside each edge, and
# collinear triples along the edges, along lines parallel to them and
# through the centroid
LATTICE = [Point2(x, y) for x in range(0, 13, 3) for y in range(0, 13, 3) if x + y <= 12]
LATTICE.append(Point2(4, 4))


def test_the_lattice_has_vertices_edge_points_and_collinear_triples():
    assert len(LATTICE) == 16
    assert all(v in LATTICE for v in TRIANGLE.vertices)
    assert sum(TRIANGLE.where(p) == "boundary" for p in LATTICE) == 12
    assert {Point2(0, 6), Point2(3, 3), Point2(6, 0)} <= set(LATTICE)
    assert {Point2(0, 0), Point2(4, 4), Point2(6, 6)} <= set(LATTICE)


def test_no_four_guards_on_the_lattice_cover_a_triangle_to_depth_4():
    # every 4-guard set leaves a point that one guard's dark ray reaches;
    # the best reach depth 3
    best = max(min_depth(TRIANGLE, list(guards)).min_depth
               for guards in itertools.combinations(LATTICE, 4))
    assert best == 3


def test_construct_reaches_the_planned_depth_on_the_triangle():
    assert plan(3, 4).g == 5
    assert plan(3, 10).g == 12
    for k in (4, 10):
        guards = construct(TRIANGLE, k)
        assert len(guards) == plan(3, k).g
        assert min_depth(TRIANGLE, guards).min_depth >= k
