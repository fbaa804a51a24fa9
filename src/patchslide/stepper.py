"""Time stepping: sample the load, solve for the contact impulse,
advance the state, and track the equivalent contact point.  simulate and
step run one loop on plain floats; assemble_inputs, ecp and validate_patch
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
from collections.abc import Callable

from .core import (
    AnnulusPatch,
    AppliedImpulse,
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
    hold_index,
    pressing_load,
    pusher_wrench,
    value_type,
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
    SolveInfo,
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

# a per-step solve, called as solve_step_info: solve(inputs, guess)
Solve = Callable[[StepInputs, float | None], tuple[ContactImpulse, SolveInfo]]


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


def _region(patch: ContactPatch) -> tuple:
    # what _contains needs of a patch, read once per run: a polygon's
    # hull edges and, unless the patch is its own hull, its vertices; an
    # annulus's or a disk's radii (a disk is a ring with r_in = 0)
    if isinstance(patch, PolygonPatch):
        return (patch.hull_edges, None if patch.convex else patch.vertices, 0.0, 0.0)
    if isinstance(patch, AnnulusPatch):
        return (None, None, patch.r_in, patch.r_out)
    if isinstance(patch, DiskPatch):
        return (None, None, 0.0, patch.r)
    raise TypeError(f"unknown patch type {type(patch).__name__}")


def _contains(region: tuple, a_x: float, a_y: float, q_x: float, q_y: float, theta_z: float) -> tuple[bool, bool]:
    # validate_patch's (in_hull, in_patch) for the patch whose _region is
    # given, at pose (q_x, q_y, theta_z)
    edges, vertices, r_in, r_out = region
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
    """Sample the schedule at the start of the step, integrate the wrench
    into impulses, and resolve the normal impulse.  A constant or table
    load's impulse and vertical force are the scenario's own, built once
    with it (Scenario.impulses and Scenario.lambda_z)."""
    schedule = scen.schedule
    h = scen.h  # positive: Scenario checks it
    params = scen.params
    if isinstance(schedule, BodyPusherSchedule):
        # the pusher's wrench changes every step: integrate its floats
        # straight into the impulse, building no AppliedWrench
        l_x, l_y, l_z, l_xtau, l_ytau, l_ztau = pusher_wrench(schedule, state_u.theta_z, state_u.t)
        applied = AppliedImpulse(h * l_x, h * l_y, h * l_z, h * l_xtau, h * l_ytau, h * l_ztau)
    else:
        k = hold_index(schedule, state_u.t)
        applied = scen.impulses[k]
        l_z = scen.lambda_z[k]
    return StepInputs(params, scen.friction, state_u, applied, h * pressing_load(params, l_z))


def warm_sigma(s1: float, s2: float, s3: float) -> float:
    """Warm-start slip speed for the next solve from the slip speeds of
    the last three steps, s1 the latest; 0.0 stands for a step not taken.

    Three steps give the quadratic extrapolation 3*s1 - 3*s2 + s3, two
    the linear 2*s1 - s2, one s1 itself; an extrapolation that is not
    positive falls back to s1.  With no history it returns 0.0, which
    the solve takes as a cold start.
    """
    if s3 > 0.0:
        x = 3.0 * (s1 - s2) + s3
    elif s2 > 0.0:
        x = 2.0 * s1 - s2
    else:
        return s1
    return x if x > 0.0 else s1


def _held_load(scen: Scenario, k: int) -> tuple:
    # the applied impulse of held_wrenches index k (a body pusher's is
    # built per step), its normal impulse and the solve's constants for it
    params, friction, h = scen.params, scen.friction, scen.h
    p_n = h * pressing_load(params, scen.lambda_z[k])
    if not p_n > 0.0:
        raise ValidationError("normal impulse must be positive")
    static = _static(params.m, params.I_z, params.q_z, friction.mu, friction.e_t, friction.e_o,
                     friction.e_r, p_n)
    return scen.impulses[k], p_n, static


def _run(
    scen: Scenario,
    state: SliderState,
    records: list[TrajectoryRecord],
    n_steps: int,
    solve: Solve | None,
    s1: float | None,
    s2: float,
    s3: float,
    stop_outside: bool,
) -> list[int]:
    # the one stepping loop, on plain floats: up to n_steps steps from
    # state, each record appended to records as it is made.  s1, s2, s3 are
    # warm_sigma's slip-speed history.  It stops after a rest step, and
    # after a step whose ECP leaves the hull when stop_outside is set.
    # Returns the indices of the steps outside the hull.  The per-step
    # calls are _solve_floats and _contains, looked up as module globals
    params, friction, schedule, h = scen.params, scen.friction, scen.schedule, scen.h
    m, I_z, q_z = params.m, params.I_z, params.q_z
    sigma_min = scen.options.sigma_min
    region = _region(params.patch)
    pusher = isinstance(schedule, BodyPusherSchedule)
    table = isinstance(schedule, TableSchedule)
    q_x, q_y, theta_z, v_x, v_y, w_z, t = (
        state.q_x, state.q_y, state.theta_z, state.v_x, state.v_y, state.w_z, state.t)
    # each held load's constants, computed at the first step that holds
    # it: a load that would fail does so at the step it applies to
    loads: list = [None] * len(scen.lambda_z)
    k = 0 if pusher else hold_index(schedule, t)
    clock = time.perf_counter
    outside: list[int] = []
    for n in range(n_steps):
        if table:
            k = hold_index(schedule, t)
        load = loads[k]
        if load is None:
            load = loads[k] = _held_load(scen, k)
        applied, p_n, static = load
        if pusher:
            # the pusher's wrench changes every step: integrate its floats
            # straight into the impulse, building no AppliedWrench
            l_x, l_y, l_z, l_xtau, l_ytau, l_ztau = pusher_wrench(schedule, theta_z, t)
            applied = AppliedImpulse(h * l_x, h * l_y, h * l_z, h * l_xtau, h * l_ytau, h * l_ztau)
        p_x, p_y, p_xtau, p_ytau, p_ztau = applied.p_x, applied.p_y, applied.p_xtau, applied.p_ytau, applied.p_ztau
        guess = warm_sigma(s1, s2, s3)
        if solve is None:
            t0 = clock()
            p_t, p_o, p_r, sigma, iters, rn = _solve_floats(
                static, v_x, v_y, w_z, p_x, p_y, p_xtau, p_ytau, p_ztau, p_n, guess)
            wall = clock() - t0
            impulse = ContactImpulse(p_t, p_o, p_r, sigma, p_n)
        else:
            inputs = StepInputs(params, friction, state, applied, p_n)
            t0 = clock()
            impulse, info = solve(inputs, guess)
            wall = clock() - t0
            p_t, p_o, p_r, sigma = impulse.p_t, impulse.p_o, impulse.p_r, impulse.sigma
            iters, rn = info.iters, info.residual_norm
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
        state = SliderState(q_x, q_y, theta_z, v_x, v_y, w_z, t)
        # the equivalent contact point, as ecp places it
        a_x = q_x + (p_ytau - p_t * q_z) / impulse.p_n
        a_y = q_y + (-p_xtau - p_o * q_z) / impulse.p_n
        in_hull, in_patch = _contains(region, a_x, a_y, q_x, q_y, theta_z)
        rest = sigma < sigma_min
        records.append(TrajectoryRecord(state, impulse, Ecp(a_x, a_y, in_hull, in_patch), applied,
                                        StepDiagnostics(iters, rn, rest, wall)))
        if not in_hull:
            outside.append(n)
            if stop_outside:
                break
        if rest:
            break
        s1, s2, s3 = sigma, s1, s2
    return outside


def step(
    state_u: SliderState,
    scen: Scenario,
    guess: float | None = None,
    solve: Solve | None = None,
) -> TrajectoryRecord:
    """Advance one step from state_u under the scenario's schedule.

    It runs simulate's stepping loop for one step.  guess is the solve's
    warm start, a slip speed (None or 0.0 for a cold start).
    solve(inputs, guess) returns the impulse and a SolveInfo; by default
    the step solves as solver.solve_step_info does.  The wrench is sampled
    at the start of the step and held constant over it.  The step, not the
    solve, decides rest: its rest flag is set exactly when the slip speed
    is below the scenario's sigma_min.  A step whose slip speed is 0.0
    (friction absorbs all momentum) ends with exactly zero velocities and
    an unchanged configuration apart from time.
    """
    records: list[TrajectoryRecord] = []
    _run(scen, state_u, records, 1, solve, guess, 0.0, 0.0, False)
    return records[0]


def simulate(scen: Scenario, solve: Solve | None = None) -> list[TrajectoryRecord]:
    """Run the scenario for round(duration/h) steps.

    One loop runs every step on plain floats, building per step only the
    record and its state, contact impulse, ECP and diagnostics (and a body
    pusher's applied impulse).  The solve's constants and the patch's
    containment data are computed once per run, and the constants once
    per held load.  Each step solves as step does, warm-started from
    warm_sigma of the slip speeds of the last three steps: by default as
    solver.solve_step_info does; a given solve(inputs, guess)
    (closed_form.translation_solve, say) gets a StepInputs built from the
    start-of-step state.  Stops early when a step is flagged as rest (its
    slip speed is below sigma_min, whichever solve ran); the rest record is
    the terminal marker.  With topple_policy "error", a step whose ECP
    leaves the support hull raises; the default policy "warn" records the
    flag, continues, and after the run emits one UserWarning naming the
    first such step and their count.  Errors carry the prefix "step k: ".
    """
    n_steps = int(round(scen.duration / scen.h))
    records: list[TrajectoryRecord] = []
    stop_outside = scen.options.topple_policy == "error"
    try:
        outside = _run(scen, scen.initial, records, n_steps, solve, 0.0, 0.0, 0.0, stop_outside)
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
