"""Closed-form velocity solutions for two special sliding regimes:
quasi-static pushing and pure translation under isotropic friction."""

from __future__ import annotations

import math

from .core import ContactImpulse, FrictionParams, StepInputs, value_type
from .errors import AnisotropicFrictionError, ValidationError, ZeroMotionError
from .solver import SolveInfo, _residual_norm, _unpack

__all__ = [
    "QuasiStaticInput",
    "TranslationStep",
    "quasi_static_velocity",
    "pure_translation_step",
    "translation_solve",
]


@value_type
class QuasiStaticInput:
    """Pusher contact kinematics for the quasi-static model.

    contact_point is where the pusher touches the slider,
    contact_velocity the imposed velocity there, cm the center of mass,
    all in the world plane; c = e_r/e_t carries meters.
    """

    contact_point: tuple[float, float]
    contact_velocity: tuple[float, float]
    cm: tuple[float, float] = (0.0, 0.0)
    c: float = 1.0

    def __post_init__(self) -> None:
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise ValidationError("ellipsoid ratio c must be positive")


def quasi_static_velocity(inp: QuasiStaticInput) -> tuple[float, float, float]:
    """Slider velocity (v_x, v_y, w_z) under quasi-static pushing.

    Inertia-free force balance pins the slip center so that the slider
    velocity at the contact point equals the pusher velocity and the
    angular rate satisfies c^2 * w_z = dx*v_y - dy*v_x, with (dx, dy) the
    contact point relative to the CM.  Contact at the CM itself gives
    pure translation with the contact velocity, exactly.

    The dynamic model reproduces it only for q_z = 0, e_t = e_o and
    e_r = c*e_t: then the constant wrench that balances sliding friction
    at this velocity is the push at the contact point, and simulate keeps
    the velocity as a fixed point.  With q_z > 0 the equivalent contact
    point moves with the friction impulse, and no such tie is shown.
    """
    dx = inp.contact_point[0] - inp.cm[0]
    dy = inp.contact_point[1] - inp.cm[1]
    v_cx, v_cy = inp.contact_velocity
    D = inp.c ** 2 + dx * dx + dy * dy
    w_z = (dx * v_cy - dy * v_cx) / D
    v_x = v_cx + w_z * dy
    v_y = v_cy - w_z * dx
    return (v_x, v_y, w_z)


@value_type
class TranslationStep:
    """One pure-translation step: friction impulse, slip speed, resulting
    velocity, and whether the step was clamped to rest."""

    p_t: float
    p_o: float
    sigma: float
    v_next: tuple[float, float]
    rest: bool


def pure_translation_step(
    v_u: tuple[float, float],
    applied: tuple[float, float],
    p_n: float,
    f: FrictionParams,
    m: float,
) -> TranslationStep:
    """One implicit step with w_z = 0, zero torques, and e_t = e_o.

    The friction impulse opposes the combined momentum
    g = m*v_u + applied with magnitude e_t*mu*p_n, and
    sigma = (e_t*|g| - e_t^2*mu*p_n)/m.  When |g| does not exceed the
    friction bound the step is clamped to exact rest and the impulse
    returned is the stopping impulse -g.
    """
    if f.e_t != f.e_o:
        raise AnisotropicFrictionError(
            f"pure translation requires e_t == e_o, got {f.e_t} and {f.e_o}"
        )
    gx = m * v_u[0] + applied[0]
    gy = m * v_u[1] + applied[1]
    S = math.hypot(gx, gy)
    if S == 0.0:
        raise ZeroMotionError("momentum plus applied impulse is zero; direction undefined")
    bound = f.e_t * f.mu * p_n
    if S <= bound:
        return TranslationStep(p_t=-gx, p_o=-gy, sigma=0.0, v_next=(0.0, 0.0), rest=True)
    k = bound / S
    p_t = -k * gx
    p_o = -k * gy
    sigma = (f.e_t * S - f.e_t ** 2 * f.mu * p_n) / m
    v_next = (v_u[0] + (p_t + applied[0]) / m, v_u[1] + (p_o + applied[1]) / m)
    return TranslationStep(p_t=p_t, p_o=p_o, sigma=sigma, v_next=v_next, rest=False)


def translation_solve(inp: StepInputs, guess: float | None = None) -> tuple[ContactImpulse, SolveInfo]:
    """pure_translation_step as a per-step solve for stepper.simulate.

    Takes and returns what solver.solve_step_info does, ignoring guess.
    The closed form needs w_z = 0, which a torque-free step keeps; an
    applied torque raises ValidationError.  The impulse has p_r = 0, and
    the info reports 0 iterations, whether the step was clamped to rest
    (sigma = 0) and the residual norm, 0.0 at rest.
    """
    a = inp.applied
    if a.p_xtau != 0.0 or a.p_ytau != 0.0 or a.p_ztau != 0.0:
        raise ValidationError("pure-translation rollout requires a torque-free schedule")
    s = inp.state
    res = pure_translation_step((s.v_x, s.v_y), (a.p_x, a.p_y), inp.p_n, inp.friction, inp.params.m)
    imp = ContactImpulse(res.p_t, res.p_o, 0.0, res.sigma, inp.p_n)
    if res.rest:
        return imp, SolveInfo(0, 0.0, True, 0)  # iters, residual_norm, rest, starts
    rn = _residual_norm((res.p_t, res.p_o, 0.0, res.sigma), _unpack(inp))
    return imp, SolveInfo(0, rn, False, 1)
