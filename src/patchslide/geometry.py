"""Planar geometry helpers for contact patch containment tests."""

from __future__ import annotations

import math

__all__ = [
    "convex_edges",
    "convex_hull",
    "point_in_convex_edges",
    "point_in_polygon",
    "radius_in_ring",
    "world_to_body",
]

# the boundary rule of every containment test: a point within _EPS m of a region is in it
_EPS = 1e-12


def world_to_body(a_x: float, a_y: float, q_x: float, q_y: float, theta_z: float) -> tuple[float, float]:
    """Express the world point (a_x, a_y) in the body frame at pose
    (q_x, q_y, theta_z)."""
    c = math.cos(theta_z)
    s = math.sin(theta_z)
    dx = a_x - q_x
    dy = a_y - q_y
    return (c * dx + s * dy, -s * dx + c * dy)


def convex_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Convex hull by the monotone chain, counterclockwise, no repeats.

    Collinear points on the hull boundary are dropped; degenerate input
    (all points collinear) returns the chain endpoints.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _near_segment(px: float, py: float, ax: float, ay: float, bx: float, by: float) -> bool:
    # within _EPS of the segment ab: beside it by point_in_convex_edges' cross
    # product, so both decide alike on a hull edge; elsewhere, and on a
    # segment of length 0, by the distance to a (b is the next segment's a)
    ex, ey = bx - ax, by - ay
    seg = math.hypot(ex, ey)
    if 0.0 < ex * (px - ax) + ey * (py - ay) <= seg * seg:
        return abs(ex * (py - ay) - ey * (px - ax)) <= _EPS * seg
    return math.hypot(px - ax, py - ay) <= _EPS


def point_in_polygon(px: float, py: float, vertices: list[tuple[float, float]]) -> bool:
    """Boundary-inclusive containment in a simple polygon, by ray casting."""
    n = len(vertices)
    for i in range(n):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % n]
        if _near_segment(px, py, ax, ay, bx, by):
            return True
    inside = False
    for i in range(n):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % n]
        if (ay > py) != (by > py):
            x_cross = ax + (py - ay) * (bx - ax) / (by - ay)
            if px < x_cross:
                inside = not inside
    return inside


def convex_edges(hull: list[tuple[float, float]]) -> tuple[tuple[float, float, float, float, float], ...]:
    """Each edge of a polygon as (a_x, a_y, e_x, e_y, slack): its start
    vertex, the vector to the next vertex (the last edge closing the
    polygon), and -_EPS*|e|, the cross product e x (p - a) of a point p
    at _EPS outside the edge."""
    return tuple((ax, ay, bx - ax, by - ay, -_EPS * math.hypot(bx - ax, by - ay))
                 for (ax, ay), (bx, by) in zip(hull, hull[1:] + hull[:1]))


def point_in_convex_edges(px: float, py: float, edges: tuple[tuple[float, float, float, float, float], ...]) -> bool:
    """Boundary-inclusive containment in a counterclockwise convex polygon
    of at least three vertices, given by its convex_edges."""
    for ax, ay, ex, ey, slack in edges:
        if ex * (py - ay) - ey * (px - ax) < slack:
            return False
    return True


def radius_in_ring(r: float, r_in: float, r_out: float) -> bool:
    """Boundary-inclusive containment, r from the center, in the ring r_in <= r <= r_out."""
    return r_in - _EPS <= r <= r_out + _EPS
