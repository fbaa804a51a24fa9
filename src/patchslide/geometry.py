"""Planar geometry helpers for contact patch containment tests."""

from __future__ import annotations

import math

__all__ = [
    "convex_edges",
    "convex_hull",
    "point_in_convex_edges",
    "point_in_polygon",
    "point_in_convex_polygon",
    "world_to_body",
]

# absolute slack for boundary classification; patches are O(0.01..1) m
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


def _on_segment(px: float, py: float, ax: float, ay: float, bx: float, by: float) -> bool:
    cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    seg = math.hypot(bx - ax, by - ay)
    if abs(cross) > _EPS * max(1.0, seg):
        return False
    dot = (px - ax) * (bx - ax) + (py - ay) * (by - ay)
    return -_EPS <= dot <= seg * seg + _EPS


def point_in_polygon(px: float, py: float, vertices: list[tuple[float, float]]) -> bool:
    """Boundary-inclusive containment in a simple polygon, by ray casting."""
    n = len(vertices)
    for i in range(n):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % n]
        if _on_segment(px, py, ax, ay, bx, by):
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


def point_in_convex_polygon(px: float, py: float, hull: list[tuple[float, float]]) -> bool:
    """Boundary-inclusive containment in a counterclockwise convex polygon."""
    n = len(hull)
    if n == 0:
        return False
    if n == 1:
        return abs(px - hull[0][0]) <= _EPS and abs(py - hull[0][1]) <= _EPS
    if n == 2:
        return _on_segment(px, py, hull[0][0], hull[0][1], hull[1][0], hull[1][1])
    return point_in_convex_edges(px, py, convex_edges(hull))


def convex_edges(hull: list[tuple[float, float]]) -> tuple[tuple[float, float, float, float], ...]:
    """Each edge of a polygon as (a_x, a_y, e_x, e_y): its start vertex and
    the vector to the next vertex, the last edge closing the polygon."""
    return tuple((ax, ay, bx - ax, by - ay) for (ax, ay), (bx, by) in zip(hull, hull[1:] + hull[:1]))


def point_in_convex_edges(px: float, py: float, edges: tuple[tuple[float, float, float, float], ...]) -> bool:
    """Boundary-inclusive containment in a counterclockwise convex polygon
    of at least three vertices, given by its convex_edges."""
    for ax, ay, ex, ey in edges:
        if ex * (py - ay) - ey * (px - ax) < -_EPS:
            return False
    return True
