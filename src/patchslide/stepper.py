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
from dataclasses import dataclass

from .core import (
    AnnulusPatch,
    AppliedImpulse,
    ContactImpulse,
    ContactPatch,
    DiskPatch,
    Ecp,
    PolygonPatch,
    SliderParams,
    SliderState,
    SlipVelocity,
    StepInputs,
    normal_impulse,
    to_impulse,
    wrench_at,
)
from .errors import PatchSlideError, ToppleRiskError
from .geometry import convex_hull, point_in_convex_polygon, point_in_polygon, world_to_body
from .scenario import Scenario
from .solver import SolverOptions, solve_step_info

__all__ = [
    "StepDiagnostics",
    "TrajectoryRecord",
    "assemble_inputs",
    "validate_patch",
    "ecp",
    "slip_velocity",
    "step",
    "simulate",
]

# geometric slack for boundary containment decisions
_EPS = 1e-12


@dataclass(frozen=True)
class StepDiagnostics:
    """Solver diagnostics attached to each record: newton_iters counts the
    scalar iterations of the slip-speed solve, and wall_time covers the
    impulse solve only."""

    newton_iters: int
    residual_norm: float
    rest_flag: bool
    wall_time: float = 0.0


@dataclass(frozen=True)
class TrajectoryRecord:
    """One completed step: end-of-step state, the contact impulse, the
    equivalent contact point, the applied impulse, and diagnostics."""

    state: SliderState
    impulses: ContactImpulse
    ecp: Ecp
    applied: AppliedImpulse
    diagnostics: StepDiagnostics


@functools.lru_cache(maxsize=256)
def _hull(patch: PolygonPatch) -> tuple[tuple[float, float], ...]:
    # patches are frozen, so a run computes its patch's hull once; the
    # bound keeps a long sweep over many patches from growing the cache
    return tuple(convex_hull(list(patch.vertices)))


def validate_patch(
    point: tuple[float, float],
    patch: ContactPatch,
    pose: tuple[float, float, float],
) -> tuple[bool, bool]:
    """Containment of a world point in the patch at pose (q_x, q_y, theta_z).

    Returns (in_hull, in_patch): the convex hull bounds where sliding
    without toppling is possible; the patch itself may be smaller (an
    annulus hull is its outer disk).
    """
    bx, by = world_to_body(point[0], point[1], pose[0], pose[1], pose[2])
    if isinstance(patch, PolygonPatch):
        in_hull = point_in_convex_polygon(bx, by, _hull(patch))
        in_patch = point_in_polygon(bx, by, patch.vertices)
        return (in_hull, in_patch)
    r = math.hypot(bx, by)
    if isinstance(patch, AnnulusPatch):
        in_hull = r <= patch.r_out + _EPS
        return (in_hull, in_hull and r >= patch.r_in - _EPS)
    if isinstance(patch, DiskPatch):
        inside = r <= patch.r + _EPS
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
    return Ecp(a_x=a_x, a_y=a_y, in_hull=in_hull, in_patch=in_patch)


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
    into impulses, and resolve the normal impulse."""
    w = wrench_at(scen.schedule, state_u, state_u.t)
    return StepInputs(
        params=scen.params,
        friction=scen.friction,
        state=state_u,
        applied=to_impulse(w, scen.h),
        p_n=normal_impulse(scen.params, w, scen.h),
        h=scen.h,
    )


def step(
    state_u: SliderState,
    scen: Scenario,
    guess: ContactImpulse | None = None,
) -> TrajectoryRecord:
    """Advance one step from state_u under the scenario's schedule.

    The wrench is sampled at the start of the step and held constant
    over it.  A rest step (friction absorbs all momentum) ends with
    exactly zero velocities and an unchanged configuration apart from
    time.
    """
    inputs = assemble_inputs(state_u, scen)
    applied = inputs.applied
    options = SolverOptions(sigma_min=scen.options.sigma_min)
    t0 = time.perf_counter()
    impulse, info = solve_step_info(inputs, guess, options)
    wall = time.perf_counter() - t0

    m = scen.params.m
    I_z = scen.params.I_z
    if info.rest and impulse.sigma == 0.0:
        v_x1 = v_y1 = w_z1 = 0.0
    else:
        v_x1 = state_u.v_x + (impulse.p_t + applied.p_x) / m
        v_y1 = state_u.v_y + (impulse.p_o + applied.p_y) / m
        w_z1 = state_u.w_z + (impulse.p_r + applied.p_ztau) / I_z
    h = scen.h
    state_1 = SliderState(
        q_x=state_u.q_x + h * v_x1,
        q_y=state_u.q_y + h * v_y1,
        theta_z=state_u.theta_z + h * w_z1,
        v_x=v_x1,
        v_y=v_y1,
        w_z=w_z1,
        t=state_u.t + h,
    )
    point = ecp(scen.params, impulse, applied, (state_1.q_x, state_1.q_y, state_1.theta_z))
    diag = StepDiagnostics(
        newton_iters=info.iters,
        residual_norm=info.residual_norm,
        rest_flag=info.rest,
        wall_time=wall,
    )
    return TrajectoryRecord(state=state_1, impulses=impulse, ecp=point, applied=applied, diagnostics=diag)


def simulate(scen: Scenario) -> list[TrajectoryRecord]:
    """Run the scenario for round(duration/h) steps.

    Stops early when a step is flagged as rest; the rest record is the
    terminal marker.  With topple_policy "error", a step whose ECP
    leaves the support hull raises; the default policy records the flag
    and continues.
    """
    n_steps = int(round(scen.duration / scen.h))
    records: list[TrajectoryRecord] = []
    state = scen.initial
    guess: ContactImpulse | None = None
    for k in range(n_steps):
        try:
            rec = step(state, scen, guess)
        except PatchSlideError as e:
            raise type(e)(f"step {k}: {e}") from e
        records.append(rec)
        if scen.options.topple_policy == "error" and not rec.ecp.in_hull:
            raise ToppleRiskError(f"step {k}: equivalent contact point left the support hull")
        if rec.diagnostics.rest_flag:
            break
        state = rec.state
        guess = rec.impulses
    return records
