"""Time stepping: sample the load, solve for the contact impulse,
advance the state, and track the equivalent contact point.  simulate and
step run one loop on plain floats, which builds each held load's impulse
and normal impulse with core.to_impulse and core.normal_impulse once per
run, and each step's record, with its state, contact impulse, ECP and
diagnostics, in one builder call; assemble_inputs, ecp and validate_patch
give a step's inputs, ECP and containment as value objects.

The velocity update is implicit (impulses satisfy the end-of-step
friction conditions); the configuration update uses end-of-step
velocities.  theta_z never enters the friction equations — the contact
frame stays world-aligned — so it is integrated only for pose logging
and patch containment tests.
"""

from __future__ import annotations

import math
import time
import warnings
from functools import cache

from .core import (
    AnnulusPatch,
    AppliedImpulse,
    AppliedWrench,
    BodyPusherSchedule,
    ContactImpulse,
    ContactPatch,
    DiskPatch,
    Ecp,
    PolygonPatch,
    SliderParams,
    SliderState,
    SlipVelocity,
    StepInputs,
    TableSchedule,
    _flat_builder,
    held_wrenches,
    hold_index,
    normal_impulse,
    pusher_wrench,
    to_impulse,
    value_type,
    wrench_at,
)
from .errors import PatchSlideError, ToppleRiskError, ValidationError
from .geometry import (
    convex_hull,  # noqa: F401  benchmark/layers.py times it as a stepper global
    point_in_convex_edges,
    point_in_polygon,
    radius_in_ring,
    world_to_body,
)
from .scenario import Scenario
from .solver import (
    _solve_floats,
    _static,
    solve_step_info,  # noqa: F401  benchmark/layers.py times it as a stepper global
)

__all__ = [
    "StepDiagnostics",
    "TrajectoryRecord",
    "assemble_inputs",
    "validate_patch",
    "ecp",
    "slip_velocity",
    "step",
    "simulate",
    "warm_sigma",
]

@value_type
class StepDiagnostics:
    """Solver diagnostics attached to each record: newton_iters counts the
    scalar iterations of the slip-speed solve, rest_flag marks a slip
    speed below the scenario's sigma_min (the run ends there), and
    wall_time covers the impulse solve only."""

    newton_iters: int
    residual_norm: float
    rest_flag: bool
    wall_time: float = 0.0


@value_type
class TrajectoryRecord:
    """One completed step: end-of-step state, the contact impulse, the
    equivalent contact point, the applied impulse, and diagnostics."""

    state: SliderState
    impulses: ContactImpulse
    ecp: Ecp
    applied: AppliedImpulse
    diagnostics: StepDiagnostics


@cache
def _record_builder():
    # a step's record, its state, contact impulse, ECP and diagnostics in
    # one call, from their fields' floats and the step's applied impulse
    # (core._flat_builder); compiled at the first run, since importing the
    # package compiles one function per value type and no more
    return _flat_builder(TrajectoryRecord, shared=("applied",))


# the margin, relative to a patch's size, by which _region's inner disk or
# band keeps off the patch boundary: far above the roundoff of rotating a
# point into the body frame and of testing it there, so that a point the
# disk accepts is one the full test accepts too
_MARGIN = 1e-9
# the squared radii of a band that no point lies in
_NO_BAND = (math.inf, -math.inf)


def _band(lo: float, hi: float) -> tuple[float, float]:
    # the squared radii (lo2, hi2) of the band lo <= r <= hi; none when hi
    # is not positive or its square is not finite, so that an overflowing
    # d2 = inf is never taken as inside
    hi2 = hi * hi
    if not (hi > 0.0 and hi2 < math.inf):
        return _NO_BAND
    return (lo * lo, hi2)


def _region(patch: ContactPatch) -> tuple:
    # what _contains needs of a patch, read once per run: a polygon's
    # hull edges and, unless the patch is its own hull, its vertices; an
    # annulus's or a disk's radii (a disk is a ring with r_in = 0); and the
    # squared radii lo2 <= d2 <= hi2 of a band about the body origin that
    # lies inside the patch by _MARGIN of its size, rotation-invariant
    if isinstance(patch, PolygonPatch):
        edges = patch.hull_edges
        if not patch.convex:
            return (edges, patch.vertices, 0.0, 0.0, *_NO_BAND)
        # the smallest signed distance from the origin to a hull edge line,
        # less _MARGIN of the largest hull-vertex norm
        r_in = min((ey * ax - ex * ay) / math.hypot(ex, ey) for ax, ay, ex, ey, _ in edges)
        size = max(math.hypot(ax, ay) for ax, ay, _, _, _ in edges)
        return (edges, None, 0.0, 0.0, *_band(0.0, r_in - _MARGIN * size))
    if isinstance(patch, AnnulusPatch):
        return (None, None, patch.r_in, patch.r_out,
                *_band(patch.r_in * (1.0 + _MARGIN), patch.r_out * (1.0 - _MARGIN)))
    if isinstance(patch, DiskPatch):
        return (None, None, 0.0, patch.r, *_band(0.0, patch.r * (1.0 - _MARGIN)))
    raise TypeError(f"unknown patch type {type(patch).__name__}")


def _contains(region: tuple, a_x: float, a_y: float, q_x: float, q_y: float, theta_z: float) -> tuple[bool, bool]:
    # validate_patch's (in_hull, in_patch) for the patch whose _region is
    # given, at pose (q_x, q_y, theta_z).  A point in the region's band is
    # in the patch at any theta_z, so it takes no rotation; the differences
    # are world_to_body's own, so both tests see the same offset
    edges, vertices, r_in, r_out, lo2, hi2 = region
    dx = a_x - q_x
    dy = a_y - q_y
    if lo2 <= dx * dx + dy * dy <= hi2:
        return (True, True)
    bx, by = world_to_body(a_x, a_y, q_x, q_y, theta_z)
    if edges is not None:
        in_hull = point_in_convex_edges(bx, by, edges)
        if vertices is None:
            return (in_hull, in_hull)
        return (in_hull, point_in_polygon(bx, by, vertices))
    r = math.hypot(bx, by)
    in_hull = radius_in_ring(r, 0.0, r_out)
    if r_in == 0.0:
        return (in_hull, in_hull)
    return (in_hull, radius_in_ring(r, r_in, r_out))


def validate_patch(
    point: tuple[float, float],
    patch: ContactPatch,
    pose: tuple[float, float, float],
) -> tuple[bool, bool]:
    """Containment of a world point in the patch at pose (q_x, q_y, theta_z).

    Returns (in_hull, in_patch): the convex hull bounds where sliding
    without toppling is possible; the patch itself may be smaller (an
    annulus hull is its outer disk), and both tests take geometry's one
    boundary rule, so in_patch implies in_hull.  For a convex polygon patch
    the patch is its hull, so in_patch is the hull test.
    """
    return _contains(_region(patch), point[0], point[1], pose[0], pose[1], pose[2])


def ecp(
    params: SliderParams,
    impulse: ContactImpulse,
    applied: AppliedImpulse,
    pose: tuple[float, float, float],
) -> Ecp:
    """Equivalent contact point for one step, in world coordinates.

    The distributed normal force balances the tangential friction and
    applied moments at the offset
    (a_x, a_y) - (q_x, q_y) = ((p_ytau - p_t q_z), (-p_xtau - p_o q_z))/p_n.
    With the CM at the support plane (q_z = 0) and no applied x/y
    torques, the ECP sits exactly beneath the CM.
    """
    d_x = (applied.p_ytau - impulse.p_t * params.q_z) / impulse.p_n
    d_y = (-applied.p_xtau - impulse.p_o * params.q_z) / impulse.p_n
    a_x = pose[0] + d_x
    a_y = pose[1] + d_y
    in_hull, in_patch = validate_patch((a_x, a_y), params.patch, pose)
    return Ecp(a_x, a_y, in_hull, in_patch)


def slip_velocity(state: SliderState, ecp_offset: tuple[float, float]) -> SlipVelocity:
    """Slip velocity at the contact point offset (a_x - q_x, a_y - q_y)."""
    d_x, d_y = ecp_offset
    return SlipVelocity(
        v_t=state.v_x - state.w_z * d_y,
        v_o=state.v_y + state.w_z * d_x,
        v_r=state.w_z,
    )


def assemble_inputs(state_u: SliderState, scen: Scenario) -> StepInputs:
    """A step's inputs as value objects: the wrench_at the start of the
    step, integrated over h by to_impulse, and its normal_impulse.  The
    stepping loop builds the same numbers on plain floats."""
    params, h = scen.params, scen.h
    w = wrench_at(scen.schedule, state_u, state_u.t)
    return StepInputs(params, scen.friction, state_u, to_impulse(w, h), normal_impulse(params, w, h))


def warm_sigma(s1: float, s2: float, s3: float, s4: float = 0.0, s5: float = 0.0) -> float:
    """Warm-start slip speed for the next solve from the slip speeds of
    the last five steps, s1 the latest; 0.0 stands for a step not taken.

    Five steps give the quartic extrapolation 5*(s1 - s4) - 10*(s2 - s3)
    + s5, four the cubic 4*s1 - 6*s2 + 4*s3 - s4, three the quadratic
    3*s1 - 3*s2 + s3, two the linear 2*s1 - s2, one s1 itself; an
    extrapolation that is not positive falls back to s1.  Each is
    evaluated in a form that gives a constant history back bit for bit, so
    that a steady slide is not nudged by roundoff: the accepted slip speed
    would otherwise drift within the solve's tolerance.  With no history
    it returns 0.0, which the solve takes as a cold start.
    """
    if s5 > 0.0:
        x = 5.0 * (s1 - s4) - 10.0 * (s2 - s3) + s5
    elif s4 > 0.0:
        x = 4.0 * (s1 - s2) + 2.0 * (s3 - s2) + 2.0 * s3 - s4
    elif s3 > 0.0:
        x = 3.0 * (s1 - s2) + s3
    elif s2 > 0.0:
        x = 2.0 * s1 - s2
    else:
        return s1
    return x if x > 0.0 else s1


def _held_load(scen: Scenario, wrench: AppliedWrench) -> tuple:
    # a held wrench's applied impulse, the five of its floats the step
    # reads, its normal impulse and the solve's constants for it.  A body
    # pusher holds the zero wrench: its vertical force is 0, and _run
    # builds its applied impulse per step
    params, friction, h = scen.params, scen.friction, scen.h
    p_n = normal_impulse(params, wrench, h)
    if not p_n > 0.0:
        raise ValidationError("normal impulse must be positive")
    static = _static(params.m, params.I_z, params.q_z, friction.mu, friction.e_t, friction.e_o,
                     friction.e_r, p_n)
    applied = to_impulse(wrench, h)
    return (applied, applied.p_x, applied.p_y, applied.p_xtau, applied.p_ytau, applied.p_ztau,
            p_n, static)


def _run(
    scen: Scenario,
    state: SliderState,
    records: list[TrajectoryRecord],
    n_steps: int,
    guess: float | None,
    stop_outside: bool,
) -> list[int]:
    # the one stepping loop, on plain floats: up to n_steps steps from
    # state, each record appended to records as it is made.  guess is the
    # first solve's warm start (None or 0.0 for a cold start), and s1 ...
    # s5 hold warm_sigma's slip-speed history from there on.  It stops
    # after a rest step, and after a step whose ECP leaves the hull when
    # stop_outside is set.
    # Returns the indices of the steps outside the hull.  The per-step
    # calls are _solve_floats and _contains, looked up as module globals,
    # and the record's builder (plus AppliedImpulse._new for a pusher)
    params, schedule, h = scen.params, scen.schedule, scen.h
    m, I_z, q_z = params.m, params.I_z, params.q_z
    sigma_min = scen.options.sigma_min
    region = _region(params.patch)
    pusher = isinstance(schedule, BodyPusherSchedule)
    table = isinstance(schedule, TableSchedule)
    q_x, q_y, theta_z, v_x, v_y, w_z, t = (
        state.q_x, state.q_y, state.theta_z, state.v_x, state.v_y, state.w_z, state.t)
    # each held load's constants, computed at the first step that holds
    # it: a load that would fail does so at the step it applies to
    wrenches = held_wrenches(schedule)
    loads: list = [None] * len(wrenches)
    k = 0 if pusher else hold_index(schedule, t)
    clock = time.perf_counter
    new_record, new_applied = _record_builder(), AppliedImpulse._new
    outside: list[int] = []
    s1, s2, s3, s4, s5 = guess, 0.0, 0.0, 0.0, 0.0
    for n in range(n_steps):
        if table:
            k = hold_index(schedule, t)
        load = loads[k]
        if load is None:
            load = loads[k] = _held_load(scen, wrenches[k])
        applied, p_x, p_y, p_xtau, p_ytau, p_ztau, p_n, static = load
        if pusher:
            # the pusher's wrench changes every step: integrate its floats
            # straight into the impulse, building no AppliedWrench
            l_x, l_y, l_z, l_xtau, l_ytau, l_ztau = pusher_wrench(schedule, theta_z, t)
            p_x, p_y, p_xtau, p_ytau, p_ztau = h * l_x, h * l_y, h * l_xtau, h * l_ytau, h * l_ztau
            applied = new_applied(p_x, p_y, h * l_z, p_xtau, p_ytau, p_ztau)
        guess = warm_sigma(s1, s2, s3, s4, s5)
        t0 = clock()
        p_t, p_o, p_r, sigma, iters, rn = _solve_floats(
            static, v_x, v_y, w_z, p_x, p_y, p_xtau, p_ytau, p_ztau, p_n, guess)
        wall = clock() - t0
        if sigma == 0.0:
            v_x = v_y = w_z = 0.0
        else:
            v_x = v_x + (p_t + p_x) / m
            v_y = v_y + (p_o + p_y) / m
            w_z = w_z + (p_r + p_ztau) / I_z
        q_x = q_x + h * v_x
        q_y = q_y + h * v_y
        theta_z = theta_z + h * w_z
        t = t + h
        # the equivalent contact point, as ecp places it, at the impulse's p_n
        a_x = q_x + (p_ytau - p_t * q_z) / p_n
        a_y = q_y + (-p_xtau - p_o * q_z) / p_n
        in_hull, in_patch = _contains(region, a_x, a_y, q_x, q_y, theta_z)
        rest = sigma < sigma_min
        records.append(new_record(q_x, q_y, theta_z, v_x, v_y, w_z, t, p_t, p_o, p_r, sigma, p_n,
                                  a_x, a_y, in_hull, in_patch, applied, iters, rn, rest, wall))
        if not in_hull:
            outside.append(n)
            if stop_outside:
                break
        if rest:
            break
        s1, s2, s3, s4, s5 = sigma, s1, s2, s3, s4
    return outside


def step(
    state_u: SliderState,
    scen: Scenario,
    guess: float | None = None,
) -> TrajectoryRecord:
    """Advance one step from state_u under the scenario's schedule.

    It runs simulate's stepping loop for one step, which solves as
    solver.solve_step_info does.  guess is the solve's warm start, a slip
    speed (None or 0.0 for a cold start).  The wrench is sampled at the
    start of the step and held constant over it.  The step, not the
    solve, decides rest: its rest flag is set exactly when the slip speed
    is below the scenario's sigma_min.  A step whose slip speed is 0.0
    (friction absorbs all momentum) ends with exactly zero velocities and
    an unchanged configuration apart from time.  A rest step that still
    slips (0 < sigma < sigma_min) keeps its end-of-step velocities, the
    momentum update's, and advances its pose by h times them.
    """
    records: list[TrajectoryRecord] = []
    _run(scen, state_u, records, 1, guess, False)
    return records[0]


def simulate(scen: Scenario) -> list[TrajectoryRecord]:
    """Run the scenario for round(duration/h) steps.

    One loop runs every step on plain floats.  Per step it makes one call
    that builds the record with its state, contact impulse, ECP and
    diagnostics (and one more for a body pusher's applied impulse), and the
    solve makes the rest test inline.  The patch's containment data are
    read once per run, and each held load's applied impulse, normal
    impulse and solve constants once per run, at the first step that holds
    it.  An ECP within a disk (or, for an annulus, a band) about the body
    origin that lies inside the patch is placed there without rotating it
    into the body frame.  Each step solves as step does, warm-started from
    warm_sigma of the slip speeds of the last five steps.

    Stops early when a step is flagged as rest (its slip speed is below
    sigma_min); the rest record is the terminal marker.  Only a rest step
    whose slip speed is 0.0 has zero velocities; one with 0 < sigma <
    sigma_min keeps its end-of-step velocities, as step says.  With
    topple_policy "error", a step whose ECP leaves the support hull
    raises; the default policy "warn" records the flag, continues, and
    after the run emits one UserWarning naming the first such step and
    their count.  Errors carry the prefix "step k: ".
    """
    n_steps = int(round(scen.duration / scen.h))
    records: list[TrajectoryRecord] = []
    stop_outside = scen.options.topple_policy == "error"
    try:
        outside = _run(scen, scen.initial, records, n_steps, 0.0, stop_outside)
    except PatchSlideError as e:
        raise type(e)(f"step {len(records)}: {e}") from e
    if outside and stop_outside:
        raise ToppleRiskError(f"step {outside[0]}: equivalent contact point left the support hull")
    if outside:
        warnings.warn(
            f"step {outside[0]}: equivalent contact point left the support hull "
            f"({len(outside)} of {len(records)} steps outside it)",
            UserWarning,
            stacklevel=2,
        )
    return records
