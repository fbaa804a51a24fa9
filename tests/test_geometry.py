"""Convex hull, point containment, and frame transforms."""

import math

import numpy as np

from patchslide.geometry import (
    convex_edges,
    convex_hull,
    point_in_convex_edges,
    point_in_convex_polygon,
    point_in_polygon,
    world_to_body,
)

SQUARE = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
# L-shape: unit square with the top-right quadrant removed
L_SHAPE = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0), (1.0, 2.0), (0.0, 2.0)]


def _shoelace(poly):
    n = len(poly)
    return 0.5 * sum(
        poly[i][0] * poly[(i + 1) % n][1] - poly[(i + 1) % n][0] * poly[i][1]
        for i in range(n)
    )


def test_hull_of_square_with_interior_and_edge_points():
    pts = SQUARE + [(0.0, 0.0), (0.0, -1.0), (0.5, 0.5)]  # interior + edge midpoint
    hull = convex_hull(pts)
    assert sorted(hull) == sorted(SQUARE)
    assert _shoelace(hull) > 0.0  # counterclockwise


def test_hull_handles_duplicates_and_collinear_input():
    assert convex_hull([(0.0, 0.0), (0.0, 0.0), (1.0, 1.0)]) == [(0.0, 0.0), (1.0, 1.0)]
    # all collinear: chain endpoints only
    assert convex_hull([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]) == [(0.0, 0.0), (3.0, 3.0)]
    assert convex_hull([(2.0, 5.0)]) == [(2.0, 5.0)]


def test_l_shape_notch_is_in_hull_but_not_in_patch():
    # the notch point (1.5, 1.5) lies inside the hull of the L but not in the L
    hull = convex_hull(L_SHAPE)
    assert point_in_convex_polygon(1.5, 1.5, hull)
    assert not point_in_polygon(1.5, 1.5, L_SHAPE)
    # a point in the foot of the L is in both
    assert point_in_convex_polygon(0.5, 0.5, hull)
    assert point_in_polygon(0.5, 0.5, L_SHAPE)


def test_point_in_polygon_boundary_inclusive():
    assert point_in_polygon(1.0, 0.0, SQUARE)      # edge
    assert point_in_polygon(1.0, 1.0, SQUARE)      # vertex
    assert point_in_polygon(0.0, 0.0, SQUARE)      # interior
    assert not point_in_polygon(1.0 + 1e-9, 0.0, SQUARE)
    assert not point_in_polygon(5.0, 5.0, SQUARE)


def test_point_in_polygon_nonconvex_ray_crossings():
    # horizontal ray from inside the L's upright crosses edges an odd number of times
    assert point_in_polygon(0.5, 1.5, L_SHAPE)
    assert not point_in_polygon(1.5, 1.5 + 1e-9, L_SHAPE)
    assert point_in_polygon(1.0, 1.5, L_SHAPE)     # on the notch edge


def test_point_in_convex_polygon_boundary_and_degenerate():
    hull = convex_hull(SQUARE)
    assert point_in_convex_polygon(-1.0, 0.0, hull)
    assert not point_in_convex_polygon(-1.0 - 1e-9, 0.0, hull)
    assert not point_in_convex_polygon(0.0, 0.0, [])
    assert point_in_convex_polygon(2.0, 5.0, [(2.0, 5.0)])
    assert point_in_convex_polygon(0.5, 0.5, [(0.0, 0.0), (1.0, 1.0)])  # on segment
    assert not point_in_convex_polygon(0.5, 0.6, [(0.0, 0.0), (1.0, 1.0)])


def _in_convex_by_index(px, py, hull):
    # the vertex-indexed form of the cross-product test with its slack
    n = len(hull)
    for i in range(n):
        ax, ay = hull[i]
        bx, by = hull[(i + 1) % n]
        if (bx - ax) * (py - ay) - (by - ay) * (px - ax) < -1e-12:
            return False
    return True


def test_edge_form_of_the_convex_test_decides_as_the_indexed_form():
    # points scattered over and just around random hulls, many of them
    # within roundoff of an edge, where the slack decides
    rng = np.random.default_rng(17)
    for _ in range(200):
        scale = 10.0 ** rng.uniform(-2.0, 1.0)
        hull = convex_hull([tuple(p) for p in rng.uniform(-scale, scale, (7, 2))])
        assert len(hull) >= 3
        edges = convex_edges(hull)
        assert len(edges) == len(hull)
        points = [tuple(p) for p in rng.uniform(-1.2 * scale, 1.2 * scale, (40, 2))]
        for (ax, ay), (bx, by) in zip(hull, hull[1:] + hull[:1]):
            for u in rng.uniform(0.0, 1.0, 5):
                for off in (-1e-12, -1e-15, 0.0, 1e-15, 1e-12):
                    points.append((ax + u * (bx - ax) + off, ay + u * (by - ay) - off))
        for px, py in points:
            expected = _in_convex_by_index(px, py, hull)
            assert point_in_convex_edges(px, py, edges) is expected
            assert point_in_convex_polygon(px, py, hull) is expected


def test_world_to_body_rotation_and_translation():
    # pose translated to (1, 2) and rotated by pi/2: world (1, 3) is body (1, 0)
    bx, by = world_to_body(1.0, 3.0, 1.0, 2.0, math.pi / 2)
    assert abs(bx - 1.0) < 1e-15
    assert abs(by - 0.0) < 1e-15
    # identity pose
    assert world_to_body(0.3, -0.7, 0.0, 0.0, 0.0) == (0.3, -0.7)


def test_world_to_body_round_trip():
    q_x, q_y, th = 0.4, -1.1, 0.63
    for (ax, ay) in [(0.0, 0.0), (1.0, 2.0), (-0.3, 0.9)]:
        bx, by = world_to_body(ax, ay, q_x, q_y, th)
        # map back by the inverse transform
        c, s = math.cos(th), math.sin(th)
        wx = q_x + c * bx - s * by
        wy = q_y + s * bx + c * by
        assert abs(wx - ax) < 1e-15
        assert abs(wy - ay) < 1e-15
