"""Time stepping: assemble per-step inputs, solve for the contact
impulse, advance the state, and track the equivalent contact point.

The velocity update is implicit (impulses satisfy the end-of-step
friction conditions); the configuration update uses end-of-step
velocities.  theta_z never enters the friction equations — the contact
frame stays world-aligned — so it is integrated only for pose logging
and patch containment tests.
"""

from __future__ import annotations

import functools
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
    hold_index,
    pressing_load,
    pusher_wrench,
    value_type,
)
from .errors import PatchSlideError, ToppleRiskError
from .geometry import (
    convex_hull,  # noqa: F401  benchmark/layers.py times it as a stepper global
    point_in_convex_edges,
    point_in_polygon,
    radius_in_ring,
    world_to_body,
)
from .scenario import Scenario
from .solver import SolveInfo, solve_step_info

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
    bx, by = world_to_body(point[0], point[1], pose[0], pose[1], pose[2])
    if isinstance(patch, PolygonPatch):
        in_hull = point_in_convex_edges(bx, by, patch.hull_edges)
        if patch.convex:
            return (in_hull, in_hull)
        return (in_hull, point_in_polygon(bx, by, patch.vertices))
    r = math.hypot(bx, by)
    if isinstance(patch, AnnulusPatch):
        return (radius_in_ring(r, 0.0, patch.r_out), radius_in_ring(r, patch.r_in, patch.r_out))
    if isinstance(patch, DiskPatch):
        inside = radius_in_ring(r, 0.0, patch.r)
        return (inside, inside)
    raise TypeError(f"unknown patch type {type(patch).__name__}")


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
    return StepInputs(params, scen.friction, state_u, applied, h * pressing_load(params, l_z), h)


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


def step(
    state_u: SliderState,
    scen: Scenario,
    guess: float | None = None,
    solve: Solve | None = None,
) -> TrajectoryRecord:
    """Advance one step from state_u under the scenario's schedule.

    guess is the solve's warm start, a slip speed.  solve(inputs, guess)
    returns the impulse and a SolveInfo; it defaults to
    solver.solve_step_info.  The wrench is sampled at the start of the
    step and held constant over it.  The step, not the solve, decides
    rest: its rest flag is set exactly when the slip speed is below the
    scenario's sigma_min.  A step whose slip speed is 0.0 (friction
    absorbs all momentum) ends with exactly zero velocities and an
    unchanged configuration apart from time.
    """
    inputs = assemble_inputs(state_u, scen)
    applied = inputs.applied
    t0 = time.perf_counter()
    impulse, info = (solve or solve_step_info)(inputs, guess)
    wall = time.perf_counter() - t0

    m = scen.params.m
    I_z = scen.params.I_z
    if impulse.sigma == 0.0:
        v_x1 = v_y1 = w_z1 = 0.0
    else:
        v_x1 = state_u.v_x + (impulse.p_t + applied.p_x) / m
        v_y1 = state_u.v_y + (impulse.p_o + applied.p_y) / m
        w_z1 = state_u.w_z + (impulse.p_r + applied.p_ztau) / I_z
    h = scen.h
    q_x1 = state_u.q_x + h * v_x1
    q_y1 = state_u.q_y + h * v_y1
    theta_z1 = state_u.theta_z + h * w_z1
    state_1 = SliderState(q_x1, q_y1, theta_z1, v_x1, v_y1, w_z1, state_u.t + h)
    point = ecp(scen.params, impulse, applied, (q_x1, q_y1, theta_z1))
    diag = StepDiagnostics(info.iters, info.residual_norm, impulse.sigma < scen.options.sigma_min, wall)
    return TrajectoryRecord(state_1, impulse, point, applied, diag)


def simulate(scen: Scenario, solve: Solve | None = None) -> list[TrajectoryRecord]:
    """Run the scenario for round(duration/h) steps.

    Each step calls solve as step does (solve_step_info by default, or
    closed_form.translation_solve, say), warm-started from warm_sigma of
    the slip speeds of the last three steps.  Stops early when a step is
    flagged as rest (its slip speed is below sigma_min, whichever solve
    ran); the rest record is the terminal marker.  With
    topple_policy "error", a step whose ECP leaves the support hull
    raises; the default policy "warn" records the flag, continues, and
    after the run emits one UserWarning naming the first such step and
    their count.  Errors carry the prefix "step k: ".
    """
    n_steps = int(round(scen.duration / scen.h))
    records: list[TrajectoryRecord] = []
    state = scen.initial
    # bound once per run, so the default path calls step(state, scen, guess)
    advance = step if solve is None else functools.partial(step, solve=solve)
    # slip speeds of the last three steps, latest first, for the warm start
    s1 = s2 = s3 = 0.0
    outside: list[int] = []
    for k in range(n_steps):
        try:
            rec = advance(state, scen, warm_sigma(s1, s2, s3))
        except PatchSlideError as e:
            raise type(e)(f"step {k}: {e}") from e
        records.append(rec)
        if not rec.ecp.in_hull:
            if scen.options.topple_policy == "error":
                raise ToppleRiskError(f"step {k}: equivalent contact point left the support hull")
            outside.append(k)
        if rec.diagnostics.rest_flag:
            break
        state = rec.state
        s1, s2, s3 = rec.impulses.sigma, s1, s2
    if outside:
        warnings.warn(
            f"step {outside[0]}: equivalent contact point left the support hull "
            f"({len(outside)} of {len(records)} steps outside it)",
            UserWarning,
            stacklevel=2,
        )
    return records
