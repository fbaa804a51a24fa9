"""Per-step friction impulse solve.

One backward-Euler step couples the friction impulse (p_t, p_o, p_r) and
the slip speed sigma through four quadratic equations: three stating that
the impulse opposes the end-of-step slip velocity with maximum power
dissipation, and one pinning the impulse to the friction ellipsoid
boundary.  This module evaluates that system and its analytic Jacobian.

It solves the system as one scalar equation in sigma.  For a fixed sigma
the three tangential equations are linear in the impulse: p_r is explicit
and (p_t, p_o) solve a 2x2 system whose determinant is strictly positive.
Along that exact curve only the ellipsoid gap g(sigma) remains.  g(0) is
negative exactly when friction cannot stop the slider within the step,
and g tends to +(mu*p_n)^2 as sigma grows, so a root can always be
bracketed and is found by a safeguarded Newton-type iteration.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .core import ContactImpulse, FrictionParams, SlipVelocity, StepInputs, value_type
from .errors import NoConvergenceError, ValidationError, ZeroSlipError

__all__ = [
    "SolveInfo",
    "residual",
    "jacobian",
    "max_dissipation_impulse",
    "stopping_impulse",
    "rest_reachable",
    "solve_step",
    "solve_step_info",
]

# the acceptance floor, in units in the last place of the residual's
# largest summand: below it the residual is roundoff, not a better root
_FLOOR_ULPS = 8.0
# relative Newton correction below which sigma has settled to roundoff
_SETTLED = 2.0 ** -40
# largest factor by which one iteration expands the bracket before a
# positive gap is seen
_GROW = 8.0
_INF = math.inf


# the tolerance contract of every solve, stated once.  _TOL is the target
# for the residual infinity norm relative to (mu*p_n)^2.  A residual within
# 8 ulps of the largest term of the four equations, expanded as polynomials
# in the unknowns, is accepted as well: that is the roundoff of evaluating
# them, so no double can do better and the target stays attainable at any
# scale where (mu*p_n)^2 is a normal double (_stop rejects the others).
# _MAX_ITER caps the scalar iterations, bracket expansions included.
_TOL = 1e-12
_MAX_ITER = 100


@value_type
class SolveInfo:
    """Diagnostics for one solve: scalar iterations, final residual norm,
    whether friction stopped the slider within the step (sigma = 0), and
    number of starts used (1 for a sliding solve, 0 at rest).  Whether a
    slow slip ends the run is the run's decision (stepper.step), not the
    solve's."""

    iters: int
    residual_norm: float
    rest: bool
    starts: int


def _unpack(inp: StepInputs) -> tuple[float, ...]:
    p = inp.params
    f = inp.friction
    s = inp.state
    a = inp.applied
    return (
        p.m, p.I_z, p.q_z,
        f.mu, f.e_t, f.e_o, f.e_r,
        s.v_x, s.v_y, s.w_z,
        a.p_x, a.p_y, a.p_xtau, a.p_ytau, a.p_ztau,
        inp.p_n,
    )


def _residuals(z, k) -> tuple[float, float, float, float]:
    # the one formula of the four residuals, in plain floats, at z for the
    # unpacked inputs k; residual() and the solve both evaluate it
    (m, I_z, q_z, mu, e_t, e_o, e_r,
     v_x, v_y, w_z, p_x, p_y, p_xtau, p_ytau, p_ztau, p_n) = k
    p_t, p_o, p_r, sigma = z
    W = w_z + (p_r + p_ztau) / I_z
    F1 = mu * p_n * e_t ** 2 * (v_x + (p_t + p_x) / m + (p_xtau + p_o * q_z) * W / p_n) + p_t * sigma
    F2 = mu * p_n * e_o ** 2 * (v_y + (p_o + p_y) / m + (p_ytau - p_t * q_z) * W / p_n) + p_o * sigma
    F3 = mu * p_n * e_r ** 2 * W + p_r * sigma
    F4 = (mu * p_n) ** 2 - (p_r / e_r) ** 2 - (p_t / e_t) ** 2 - (p_o / e_o) ** 2
    return F1, F2, F3, F4


def _residual_norm(z, k) -> float:
    F1, F2, F3, F4 = _residuals(z, k)
    return max(abs(F1), abs(F2), abs(F3), abs(F4))


def _largest_summand(z, k) -> float:
    # magnitude of the largest monomial of the four residuals, expanded as
    # polynomials in z; it sets the scale of the roundoff in _residuals
    (m, I_z, q_z, mu, e_t, e_o, e_r,
     v_x, v_y, w_z, p_x, p_y, p_xtau, p_ytau, p_ztau, p_n) = k
    p_t, p_o, p_r, sigma = z
    a = mu * p_n
    W = max(abs(w_z), abs(p_r) / I_z, abs(p_ztau) / I_z)
    return max(
        a * e_t ** 2 * max(abs(v_x), abs(p_t) / m, abs(p_x) / m, max(abs(p_xtau), abs(p_o * q_z)) * W / p_n),
        a * e_o ** 2 * max(abs(v_y), abs(p_o) / m, abs(p_y) / m, max(abs(p_ytau), abs(p_t * q_z)) * W / p_n),
        a * e_r ** 2 * W,
        abs(sigma) * max(abs(p_t), abs(p_o), abs(p_r)),
        a * a, (p_r / e_r) ** 2, (p_t / e_t) ** 2, (p_o / e_o) ** 2,
    )


def residual(z: tuple[float, float, float, float], inp: StepInputs) -> np.ndarray:
    """Four residuals of the per-step quadratic system at z = (p_t, p_o,
    p_r, sigma).  Zero exactly at a sliding solution."""
    return np.array(_residuals(z, _unpack(inp)))


def jacobian(z: tuple[float, float, float, float], inp: StepInputs) -> np.ndarray:
    """Analytic Jacobian of residual() with respect to z.  The system is
    quadratic, so every entry is affine in z."""
    (m, I_z, q_z, mu, e_t, e_o, e_r,
     v_x, v_y, w_z, p_x, p_y, p_xtau, p_ytau, p_ztau, p_n) = _unpack(inp)
    p_t, p_o, p_r, sigma = z
    W = w_z + (p_r + p_ztau) / I_z
    alpha = mu * p_n * e_t ** 2
    beta = mu * p_n * e_o ** 2
    gamma = mu * p_n * e_r ** 2
    return np.array([
        [alpha / m + sigma,
         alpha * q_z * W / p_n,
         alpha * (p_xtau + p_o * q_z) / (I_z * p_n),
         p_t],
        [-beta * q_z * W / p_n,
         beta / m + sigma,
         beta * (p_ytau - p_t * q_z) / (I_z * p_n),
         p_o],
        [0.0, 0.0, gamma / I_z + sigma, p_r],
        [-2.0 * p_t / e_t ** 2, -2.0 * p_o / e_o ** 2, -2.0 * p_r / e_r ** 2, 0.0],
    ])


def max_dissipation_impulse(v: SlipVelocity, p_n: float, f: FrictionParams) -> ContactImpulse:
    """Friction impulse maximizing dissipated power against slip v.

    The maximizer on the ellipsoid boundary is p_i = -mu*p_n*e_i^2*v_i/sigma
    with sigma the generalized slip speed.  Raises ZeroSlipError when the
    slip velocity vanishes, since the direction is then undefined.
    """
    sigma = math.sqrt((f.e_t * v.v_t) ** 2 + (f.e_o * v.v_o) ** 2 + (f.e_r * v.v_r) ** 2)
    if sigma == 0.0:
        raise ZeroSlipError("slip velocity is zero; friction direction undefined")
    k = f.mu * p_n / sigma
    return ContactImpulse(
        p_t=-k * f.e_t ** 2 * v.v_t,
        p_o=-k * f.e_o ** 2 * v.v_o,
        p_r=-k * f.e_r ** 2 * v.v_r,
        sigma=sigma,
        p_n=p_n,
    )


def _square_or_inf(x: float) -> float:
    # (mu*p_n)^2 that overflows is kept as inf for _stop to report
    try:
        return x ** 2
    except OverflowError:
        return _INF


def _static(m, I_z, q_z, mu, e_t, e_o, e_r, p_n) -> tuple[float, ...]:
    # the solve's constants for one slider, friction ellipsoid and normal
    # impulse: over a run of constant p_n they never change, so
    # stepper.simulate computes them once per held load
    mu_pn = mu * p_n
    mu_pn_sq = _square_or_inf(mu_pn)
    alpha = mu * p_n * e_t ** 2
    beta = mu * p_n * e_o ** 2
    gamma = mu * p_n * e_r ** 2
    w_t = 2.0 / e_t ** 2
    w_o = 2.0 / e_o ** 2
    w_r = 2.0 / e_r ** 2
    r_damp = gamma / I_z
    a11 = alpha / m
    a22 = beta / m
    q_t = alpha * q_z / p_n
    q_o = beta * q_z / p_n
    return (m, I_z, q_z, mu, e_t, e_o, e_r, mu_pn, mu_pn_sq,
            alpha, beta, gamma, r_damp, a11, a22, q_t, q_o, w_t, w_o, w_r)


def _stop(m, I_z, e_t, e_o, e_r, mu_pn_sq, v_x, v_y, w_z, p_x, p_y, p_ztau) -> tuple[float, ...]:
    # the stopping impulse and its square in friction-ellipsoid units, the
    # left side of the rest test; that square must be a double, as must
    # (mu*p_n)^2, and a state-dependent load can push it past one even when
    # the scenario passed its load check.  (mu*p_n)^2 must also be a normal
    # double, or the tolerance relative to it is not attainable
    p_t, p_o, p_r = -(m * v_x + p_x), -(m * v_y + p_y), -(I_z * w_z + p_ztau)
    try:
        lhs = (p_t / e_t) ** 2 + (p_o / e_o) ** 2 + (p_r / e_r) ** 2
    except OverflowError:
        lhs = _INF
    if lhs == _INF or mu_pn_sq == _INF:
        raise ValidationError(
            "load is too large: the stopping impulse squared in friction-ellipsoid units "
            "overflows a double"
        )
    if mu_pn_sq < sys.float_info.min:
        raise ValidationError("normal impulse is too small: (mu*p_n)^2 is not a normal double")
    return p_t, p_o, p_r, lhs


def stopping_impulse(inp: StepInputs) -> tuple[float, float, float]:
    """Tangential impulse that would bring the slider exactly to rest this
    step, absorbing both the current momentum and the applied impulse."""
    # _stop's impulse, without the rest test's overflow check
    p, s, a = inp.params, inp.state, inp.applied
    return (-(p.m * s.v_x + a.p_x), -(p.m * s.v_y + a.p_y), -(p.I_z * s.w_z + a.p_ztau))


def rest_reachable(inp: StepInputs) -> bool:
    """Whether friction can stop the slider within this step.

    True exactly when the stopping impulse lies inside the friction
    ellipsoid; then the zero-slip branch of the contact model holds (all
    end-of-step slip velocities vanish identically) and no sliding
    solution with sigma > 0 is needed.  Raises ValidationError when the
    load is too large, or p_n too small, for the test in double precision.
    """
    p, f, s, a = inp.params, inp.friction, inp.state, inp.applied
    mu_pn_sq = _square_or_inf(f.mu * inp.p_n)
    lhs = _stop(p.m, p.I_z, f.e_t, f.e_o, f.e_r, mu_pn_sq, s.v_x, s.v_y, s.w_z, a.p_x, a.p_y, a.p_ztau)[3]
    return lhs <= mu_pn_sq


def _initial_sigma(k) -> float:
    # slip speed of the max-dissipation impulse at start-of-step velocities,
    # ECP offsets zeroed; applied-adjusted velocities when starting at rest
    (m, I_z, q_z, mu, e_t, e_o, e_r,
     v_x, v_y, w_z, p_x, p_y, p_xtau, p_ytau, p_ztau, p_n) = k
    v_t, v_o, v_r = v_x, v_y, w_z
    sigma0 = math.sqrt((e_t * v_t) ** 2 + (e_o * v_o) ** 2 + (e_r * v_r) ** 2)
    if sigma0 < 1e-12:
        v_t += p_x / m
        v_o += p_y / m
        v_r += p_ztau / I_z
        sigma0 = math.sqrt((e_t * v_t) ** 2 + (e_o * v_o) ** 2 + (e_r * v_r) ** 2)
    return sigma0


def _gap_curve(k):
    """The exact solution curve of the three tangential equations.

    Returns a function of sigma giving the point (p_t, p_o, p_r, sigma)
    on the curve, the ellipsoid gap there and the gap's derivative along
    the curve.  The gap is _residuals' fourth residual, bit for bit.
    No solve calls it: _solve_floats evaluates the same expressions
    inline, in the same order, so that a step builds no closure.  This is
    the reference the tests hold that loop to, bit for bit."""
    (m, I_z, q_z, mu, e_t, e_o, e_r,
     v_x, v_y, w_z, p_x, p_y, p_xtau, p_ytau, p_ztau, p_n) = k
    (_, _, _, _, _, _, _, _, mu_pn_sq, alpha, beta, gamma,
     r_damp, a11, a22, q_t, q_o, w_t, w_o, w_r) = _static(m, I_z, q_z, mu, e_t, e_o, e_r, p_n)
    W0 = w_z + p_ztau / I_z
    c_t = -alpha * (v_x + p_x / m)
    c_o = -beta * (v_y + p_y / m)
    d_t = -alpha * p_xtau / p_n
    d_o = -beta * p_ytau / p_n

    def point(sig):
        # rotational equation: gamma*W + p_r*sig = 0 with W affine in p_r
        p_r = -gamma * W0 / (sig + r_damp)
        dp_r = -p_r / (sig + r_damp)
        W = w_z + (p_r + p_ztau) / I_z
        dW = dp_r / I_z
        # translational equations: A (p_t, p_o) = b, det A > 0
        A11 = a11 + sig
        A22 = a22 + sig
        A12 = q_t * W
        A21 = -q_o * W
        det = A11 * A22 - A12 * A21
        b1 = c_t + d_t * W
        b2 = c_o + d_o * W
        p_t = (b1 * A22 - A12 * b2) / det
        p_o = (A11 * b2 - A21 * b1) / det
        # differentiate A p = b in sig: A p' = b' - A' p
        r1 = d_t * dW - p_t - q_t * dW * p_o
        r2 = d_o * dW + q_o * dW * p_t - p_o
        dp_t = (r1 * A22 - A12 * r2) / det
        dp_o = (A11 * r2 - A21 * r1) / det
        gap = mu_pn_sq - (p_r / e_r) ** 2 - (p_t / e_t) ** 2 - (p_o / e_o) ** 2
        dgap = -(w_t * p_t * dp_t + w_o * p_o * dp_o + w_r * p_r * dp_r)
        return (p_t, p_o, p_r, sig), gap, dgap

    return point


def _inputs(static, v_x, v_y, w_z, p_x, p_y, p_xtau, p_ytau, p_ztau, p_n) -> tuple[float, ...]:
    # _unpack's tuple from the float solve's arguments, for its rare paths:
    # the cold start, the roundoff floor and the error message
    m, I_z, q_z, mu, e_t, e_o, e_r = static[:7]
    return (m, I_z, q_z, mu, e_t, e_o, e_r, v_x, v_y, w_z, p_x, p_y, p_xtau, p_ytau, p_ztau, p_n)


def _solve_floats(static, v_x, v_y, w_z, p_x, p_y, p_xtau, p_ytau, p_ztau, p_n, guess):
    # solve_step_info in plain floats: static is _static's tuple for the
    # slider, the friction ellipsoid and p_n, then come the start-of-step
    # velocities and the applied impulse.  Returns (p_t, p_o, p_r, sigma,
    # iters, residual_norm), with sigma 0.0 on a rest step
    (m, I_z, q_z, mu, e_t, e_o, e_r, mu_pn, mu_pn_sq, alpha, beta, gamma,
     r_damp, a11, a22, q_t, q_o, w_t, w_o, w_r) = static
    tol = _TOL * mu_pn_sq

    stop_t, stop_o, stop_r, lhs0 = _stop(m, I_z, e_t, e_o, e_r, mu_pn_sq, v_x, v_y, w_z, p_x, p_y, p_ztau)
    if lhs0 <= mu_pn_sq:  # rest_reachable's test
        return stop_t, stop_o, stop_r, 0.0, 0, 0.0

    # _gap_curve's per-step constants and, in the loop, its point(), term for term
    W0 = w_z + p_ztau / I_z
    c_t = -alpha * (v_x + p_x / m)
    c_o = -beta * (v_y + p_y / m)
    d_t = -alpha * p_xtau / p_n
    d_o = -beta * p_ytau / p_n
    g_W0 = -gamma * W0
    if guess is not None and 0.0 < guess < _INF:
        sig = guess
    else:
        sig = _initial_sigma(_inputs(static, v_x, v_y, w_z, p_x, p_y, p_xtau, p_ytau, p_ztau, p_n))
    # the bracket, and lhs at its ends for the linear-fractional step; at
    # sigma = 0 the curve's point is the stopping impulse
    lo, hi = 0.0, math.inf
    lhs_lo, lhs_hi = lhs0, math.inf
    dx = dx_old = math.inf
    for it in range(_MAX_ITER + 1):
        s_r = sig + r_damp
        p_r = g_W0 / s_r
        W = w_z + (p_r + p_ztau) / I_z
        A11 = a11 + sig
        A22 = a22 + sig
        A12 = q_t * W
        A21 = -q_o * W
        det = A11 * A22 - A12 * A21
        b1 = c_t + d_t * W
        b2 = c_o + d_o * W
        p_t = (b1 * A22 - A12 * b2) / det
        p_o = (A11 * b2 - A21 * b1) / det
        gap = mu_pn_sq - (p_r / e_r) ** 2 - (p_t / e_t) ** 2 - (p_o / e_o) ** 2
        # the residual norm is at least |gap|, so the other three residuals
        # are worth evaluating only once the gap alone meets the tolerance;
        # they are _residuals' F1-F3, and the gap is its F4
        rn = None
        if abs(gap) <= tol:
            rn = max(
                abs(alpha * (v_x + (p_t + p_x) / m + (p_xtau + p_o * q_z) * W / p_n) + p_t * sig),
                abs(beta * (v_y + (p_o + p_y) / m + (p_ytau - p_t * q_z) * W / p_n) + p_o * sig),
                abs(gamma * W + p_r * sig),
                abs(gap),
            )
            if rn <= tol:
                break
        # the gap's derivative along the curve
        dp_r = -p_r / s_r
        dW = dp_r / I_z
        r1 = d_t * dW - p_t - q_t * dW * p_o
        r2 = d_o * dW + q_o * dW * p_t - p_o
        dp_t = (r1 * A22 - A12 * r2) / det
        dp_o = (A11 * r2 - A21 * r1) / det
        dgap = -(w_t * p_t * dp_t + w_o * p_o * dp_o + w_r * p_r * dp_r)
        # Newton on f = 1/sqrt(lhs) - 1/(mu*p_n), which has the roots of the
        # gap but is nearly linear in sigma: exactly so in pure translation
        lhs = mu_pn_sq - gap
        newton = sig - 2.0 * lhs * (1.0 - math.sqrt(lhs) / mu_pn) / dgap if dgap != 0.0 else math.nan
        # near a root the Newton correction is the error in sigma; the floor
        # is worth computing only once that error is down to roundoff
        if abs(newton - sig) <= _SETTLED * sig:
            z = (p_t, p_o, p_r, sig)
            k = _inputs(static, v_x, v_y, w_z, p_x, p_y, p_xtau, p_ytau, p_ztau, p_n)
            if rn is None:
                rn = _residual_norm(z, k)
            if rn <= _FLOOR_ULPS * math.ulp(_largest_summand(z, k)):
                break
        if gap < 0.0:
            lo, lhs_lo = sig, lhs
        else:
            hi, lhs_hi = sig, lhs
        if hi == math.inf:
            # no positive gap seen yet: expand by at most a factor _GROW
            nxt = newton if lo < newton < _GROW * lo else _GROW * lo
        elif lo < newton < hi and abs(newton - sig) < 0.5 * dx_old:
            nxt = newton
        else:
            # where f curves away from its tangent (spin coupled through q_z,
            # say), Newton overshoots from above or creeps up from below.
            # Take the root of the linear-fractional model of f that matches
            # its value and slope at sig and its value at the far end of the
            # bracket, if it lies inside the bracket; bisect otherwise
            far, lhs_far = (hi, lhs_hi) if gap < 0.0 else (lo, lhs_lo)
            nxt = math.nan
            if lhs > 0.0 and lhs_far > 0.0:
                inv_far = 1.0 / math.sqrt(lhs_far)
                d = inv_far - 1.0 / math.sqrt(lhs)  # f at far minus f at sig
                run = far - sig
                step = sig - newton
                den = (inv_far - 1.0 / mu_pn) * run - step * d
                if den != 0.0:
                    nxt = sig - step * d * run / den
            if not lo < nxt < hi:
                # halving from a huge warm start down to lo = 0 would gain
                # one bit per iteration: step to the cold start instead
                sigma0 = 0.0
                if lo == 0.0:
                    sigma0 = _initial_sigma(_inputs(static, v_x, v_y, w_z, p_x, p_y, p_xtau, p_ytau, p_ztau, p_n))
                nxt = sigma0 if 0.0 < _GROW * sigma0 < hi else 0.5 * (lo + hi)
        dx_old, dx = dx, abs(nxt - sig)
        sig = nxt
    else:
        k = _inputs(static, v_x, v_y, w_z, p_x, p_y, p_xtau, p_ytau, p_ztau, p_n)
        raise NoConvergenceError(
            f"slip-speed solve did not reach the tolerance in {_MAX_ITER} iterations "
            f"(bracket [{lo:.17g}, {hi:.17g}], "
            f"residual {_residual_norm((p_t, p_o, p_r, sig), k):.3e})"
        )
    return p_t, p_o, p_r, sig, it, rn


def solve_step_info(inp: StepInputs, guess: float | None = None) -> tuple[ContactImpulse, SolveInfo]:
    """Solve one implicit step; returns the impulse and solve diagnostics.

    If friction can absorb the entire momentum within the step, the step
    is a rest step: the returned impulse is the stopping impulse (strictly
    inside the ellipsoid), sigma is zero, and SolveInfo.rest is set.  The
    test is rest_reachable's; like it, it raises ValidationError when the
    load is too large, or p_n too small, for the test in double precision.

    Otherwise the solve walks the exact solution curve of the tangential
    equations in sigma, from a warm start: guess, a slip speed.  simulate
    passes the slip speed extrapolated from its last three steps
    (stepper.warm_sigma).  A guess that is not a finite positive float
    (None, 0.0, nan, inf) starts cold, from the slip speed of the
    max-dissipation impulse at the start-of-step velocities.  It keeps a
    bracket [lo, hi] with the ellipsoid gap negative at lo and positive at
    hi, starting from [0, inf).  Each iteration takes a Newton step on
    f = 1/sqrt(lhs) - 1/(mu*p_n), which has the gap's roots.  Until a
    positive gap is seen it moves right by that step or at most a factor
    8.  After that it takes the Newton step when it lands inside the
    bracket and shrinks fast enough.  Otherwise it takes the root of the
    linear-fractional model of f that matches f and its slope at the
    current point and f at the far end of the bracket (at sigma = 0 the
    curve's point is the stopping impulse), which follows f's curvature
    where Newton overshoots or creeps; failing that, it bisects, except
    that from a bracket [0, hi] with hi more than 8 times the cold start it
    steps to the cold start, since halving down from a huge warm start
    gains one bit per iteration.

    With q_z = 0 and p_xtau = p_ytau = 0, the curve's |p_t|, |p_o| and
    |p_r| each fall strictly in sigma (or stay zero), so the gap rises
    strictly and has one root.  q_z (through W in the 2x2 system's
    off-diagonal) and the applied x/y torques (through W on its right side)
    couple p_t and p_o to the spin, and then the gap can have several roots.

    Root-selection rule: the root returned is the one reached inside the
    bracket that first contains the warm start.  When the gap has several
    roots, a different warm start may select a different one.
    THREE_ROOTS_FLAT in tests/test_solver.py (q_z = 0, applied x/y
    torques) has roots at sigma = 2.609e-5, 1.280e-4 and 7.514e-4: a cold
    start returns 7.514e-4, a warm start of 1e-6 returns 2.609e-5.  In a
    run that warm start is the extrapolated sigma, not the previous step's.

    The first point whose four-residual infinity norm meets the tolerance
    contract (_TOL relative to (mu*p_n)^2, or the roundoff floor) is
    accepted; NoConvergenceError is raised after _MAX_ITER iterations.

    This wraps the plain-float solve that stepper.simulate calls on every
    step with the constants of _static, which a run computes once per held
    load; here they are computed for each call.
    """
    params, friction, s, a = inp.params, inp.friction, inp.state, inp.applied
    p_n = inp.p_n
    static = _static(params.m, params.I_z, params.q_z, friction.mu, friction.e_t, friction.e_o,
                     friction.e_r, p_n)
    p_t, p_o, p_r, sigma, iters, rn = _solve_floats(
        static, s.v_x, s.v_y, s.w_z, a.p_x, a.p_y, a.p_xtau, a.p_ytau, a.p_ztau, p_n, guess)
    rest = sigma == 0.0
    return ContactImpulse(p_t, p_o, p_r, sigma, p_n), SolveInfo(iters, rn, rest, 0 if rest else 1)


def solve_step(inp: StepInputs, guess: float | None = None) -> ContactImpulse:
    """Solve one implicit step for the friction impulse and slip speed."""
    imp, _ = solve_step_info(inp, guess)
    return imp
