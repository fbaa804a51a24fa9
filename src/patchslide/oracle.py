"""Slow, independent reference solver for the per-step contact problem,
plus direct optimality checks on candidate solutions.

The reference path shares no solve code with the production solver,
which walks the slip-speed-parameterized solution curve: it iterates a
fixed point in end-of-step velocity space and, when that stalls, falls
back to an exhaustive grid search over the friction impulse box followed
by damped Newton iteration on all four equations.  Only the solver
module's evaluation of the system is reused: its residual and Jacobian,
and the plain-float residual norm that residual wraps, which keeps the
two solution methods disjoint.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ContactImpulse, StepInputs, value_type
from .errors import OracleFailure
from .solver import _residual_norm, _unpack, jacobian, residual

__all__ = ["KktReport", "oracle_solve_step", "verify_kkt"]

# iterate until the residual is this far below the failure floor
_TARGET_REL = 1e-12
_FLOOR_REL = 1e-7
_MAX_ITERS = 50_000
_STALL_ITERS = 300
_RELAX = 0.5
_GRID_RESOLUTION = 1e-8
_NEWTON_ITERS = 100


def _rnorm(z: tuple[float, float, float, float], inp: StepInputs) -> float:
    return _residual_norm(z, _unpack(inp))


def oracle_solve_step(inp: StepInputs) -> ContactImpulse:
    """Solve one implicit step by fixed-point iteration with grid fallback.

    From a velocity iterate, impulses follow from the maximum-dissipation
    closed form at the implied contact point offset; velocities are then
    recomputed from those impulses and relaxed.  On a stall the fallback
    runs the impulse-box grid search and then four-equation Newton
    refinement from the best candidate so far, keeping the best.  A
    rest-reachable step (stopping impulse inside the friction ellipsoid)
    returns the stopping impulse with zero slip speed, mirroring the fast
    solver's convention.
    Deterministic throughout.  Raises OracleFailure when no stage reaches
    the residual floor.
    """
    p = inp.params
    f = inp.friction
    s = inp.state
    a = inp.applied
    m, I_z, q_z = p.m, p.I_z, p.q_z
    mu, e_t, e_o, e_r = f.mu, f.e_t, f.e_o, f.e_r
    p_n = inp.p_n
    scale = max(1.0, (mu * p_n) ** 2)

    stop_t = -(m * s.v_x + a.p_x)
    stop_o = -(m * s.v_y + a.p_y)
    stop_r = -(I_z * s.w_z + a.p_ztau)
    if (stop_t / e_t) ** 2 + (stop_o / e_o) ** 2 + (stop_r / e_r) ** 2 <= (mu * p_n) ** 2:
        return ContactImpulse(p_t=stop_t, p_o=stop_o, p_r=stop_r, sigma=0.0, p_n=p_n)

    nu_x, nu_y, nu_w = s.v_x, s.v_y, s.w_z
    if nu_x == 0.0 and nu_y == 0.0 and nu_w == 0.0:
        nu_x = s.v_x + a.p_x / m
        nu_y = s.v_y + a.p_y / m
        nu_w = s.w_z + a.p_ztau / I_z
    p_t = p_o = p_r = 0.0
    best: tuple[float, float, float, float] | None = None
    best_rn = math.inf
    last_improve = 0
    for it in range(_MAX_ITERS):
        d_x = (a.p_ytau - p_t * q_z) / p_n
        d_y = (-a.p_xtau - p_o * q_z) / p_n
        v_t = nu_x - nu_w * d_y
        v_o = nu_y + nu_w * d_x
        v_r = nu_w
        sigma = math.sqrt((e_t * v_t) ** 2 + (e_o * v_o) ** 2 + (e_r * v_r) ** 2)
        if sigma == 0.0:
            break
        k = mu * p_n / sigma
        p_t = -k * e_t ** 2 * v_t
        p_o = -k * e_o ** 2 * v_o
        p_r = -k * e_r ** 2 * v_r
        z = (p_t, p_o, p_r, sigma)
        rn = _rnorm(z, inp)
        if rn < best_rn:
            best, best_rn = z, rn
            last_improve = it
        if rn <= _TARGET_REL * scale:
            break
        if it - last_improve > _STALL_ITERS:
            break
        new_x = s.v_x + (p_t + a.p_x) / m
        new_y = s.v_y + (p_o + a.p_y) / m
        new_w = s.w_z + (p_r + a.p_ztau) / I_z
        nu_x = (1.0 - _RELAX) * nu_x + _RELAX * new_x
        nu_y = (1.0 - _RELAX) * nu_y + _RELAX * new_y
        nu_w = (1.0 - _RELAX) * nu_w + _RELAX * new_w

    if best is None or best_rn > _TARGET_REL * scale:
        z, rn = _grid_search(inp)
        if best is None or rn < best_rn:
            best, best_rn = z, rn
    if best_rn > _TARGET_REL * scale:
        z, rn = _newton_refine(best, inp, _TARGET_REL * scale)
        if rn < best_rn:
            best, best_rn = z, rn
    if best_rn > _FLOOR_REL * scale:
        raise OracleFailure(
            f"residual floor not reached: {best_rn:.3e} > {_FLOOR_REL * scale:.3e}"
        )
    return ContactImpulse(p_t=best[0], p_o=best[1], p_r=best[2], sigma=best[3], p_n=p_n)


def _grid_search(inp: StepInputs) -> tuple[tuple[float, float, float, float], float]:
    """Exhaustive search over the impulse box, refined around the
    incumbent until every axis spacing is at or below the resolution
    target.  For each impulse candidate the slip speed is the
    least-squares minimizer of the three tangential residuals (linear in
    sigma), which is exact at a root of the system.  A candidate whose
    minimizer is negative is no solution (sigma >= 0) and is ruled out:
    clamping its sigma to 0 instead makes a spurious incumbent that the
    refinement can zoom into."""
    p = inp.params
    f = inp.friction
    s = inp.state
    a = inp.applied
    m, I_z, q_z = p.m, p.I_z, p.q_z
    mu, e_t, e_o, e_r = f.mu, f.e_t, f.e_o, f.e_r
    p_n = inp.p_n

    bound = np.array([e_t, e_o, e_r]) * mu * p_n
    center = np.zeros(3)
    half = bound.copy()
    n = 64
    best_z = (0.0, 0.0, 0.0, 0.0)
    best_rn = math.inf
    while True:
        axes = [
            np.linspace(max(c - hw, -b), min(c + hw, b), n)
            for c, hw, b in zip(center, half, bound)
        ]
        P_t, P_o, P_r = (g.ravel() for g in np.meshgrid(*axes, indexing="ij"))
        W = s.w_z + (P_r + a.p_ztau) / I_z
        a1 = mu * p_n * e_t ** 2 * (s.v_x + (P_t + a.p_x) / m + (a.p_xtau + P_o * q_z) * W / p_n)
        a2 = mu * p_n * e_o ** 2 * (s.v_y + (P_o + a.p_y) / m + (a.p_ytau - P_t * q_z) * W / p_n)
        a3 = mu * p_n * e_r ** 2 * W
        denom = P_t ** 2 + P_o ** 2 + P_r ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            sigma = np.where(denom > 0.0, -(a1 * P_t + a2 * P_o + a3 * P_r) / denom, 0.0)
        F4 = (mu * p_n) ** 2 - (P_r / e_r) ** 2 - (P_t / e_t) ** 2 - (P_o / e_o) ** 2
        rn = np.abs(a1 + P_t * sigma)
        np.maximum(rn, np.abs(a2 + P_o * sigma), out=rn)
        np.maximum(rn, np.abs(a3 + P_r * sigma), out=rn)
        np.maximum(rn, np.abs(F4), out=rn)
        rn[sigma < 0.0] = math.inf
        k = int(np.argmin(rn))
        if float(rn[k]) < best_rn:
            best_rn = float(rn[k])
            best_z = (float(P_t[k]), float(P_o[k]), float(P_r[k]), float(sigma[k]))
        spacing = np.array([ax[1] - ax[0] if len(ax) > 1 else 0.0 for ax in axes])
        if np.all(spacing <= _GRID_RESOLUTION):
            return best_z, best_rn
        center = np.array(best_z[:3])
        half = spacing
        n = 16


def _perturbations(z0: tuple[float, float, float, float]):
    # deterministic restarts: 10% scalings, per-component and full sign
    # flips, and slip-speed rescalings
    p_t, p_o, p_r, s = z0
    s = abs(s) if s != 0.0 else 1.0
    yield (1.1 * p_t, 1.1 * p_o, 1.1 * p_r, s)
    yield (0.9 * p_t, 0.9 * p_o, 0.9 * p_r, s)
    yield (-p_t, p_o, p_r, s)
    yield (p_t, -p_o, p_r, s)
    yield (p_t, p_o, -p_r, s)
    yield (-p_t, -p_o, -p_r, s)
    yield (p_t, p_o, p_r, 2.0 * s)
    yield (p_t, p_o, p_r, 0.5 * s)


def _newton(z0, inp: StepInputs, tol: float) -> tuple[tuple[float, float, float, float], float]:
    """Damped Newton on all four equations with backtracking on ||F||^2.
    Returns the last iterate and its residual norm."""
    z = np.asarray(z0, dtype=float)
    F = residual(tuple(z), inp)
    for _ in range(_NEWTON_ITERS):
        if float(np.max(np.abs(F))) <= tol:
            break
        try:
            d = np.linalg.solve(jacobian(tuple(z), inp), -F)
        except np.linalg.LinAlgError:
            break
        merit = float(F @ F)
        lam = 1.0
        z_try = z + d
        F_try = residual(tuple(z_try), inp)
        while float(F_try @ F_try) > (1.0 - 1e-4 * lam) * merit and lam > 1e-4:
            lam *= 0.5
            z_try = z + lam * d
            F_try = residual(tuple(z_try), inp)
        z, F = z_try, F_try
    return tuple(float(c) for c in z), float(np.max(np.abs(F)))


def _newton_refine(
    z0: tuple[float, float, float, float], inp: StepInputs, tol: float
) -> tuple[tuple[float, float, float, float], float]:
    """Precision stage of the fallback: damped Newton from the incumbent,
    restarting from deterministic perturbations of it until a root with
    sigma >= 0 reaches tol.  The grid search lands near a root but stalls
    in the slip-speed valley well above the floor, sometimes in the basin
    of a spurious negative-sigma root that a sign flip escapes.  Returns
    the best point with sigma >= 0 and its residual norm."""
    best_z, best_rn = z0, _rnorm(z0, inp)
    for start in (z0, *_perturbations(z0)):
        z, rn = _newton(start, inp, tol)
        if z[3] >= 0.0 and rn < best_rn:
            best_z, best_rn = z, rn
        if best_rn <= tol:
            break
    return best_z, best_rn


@value_type
class KktReport:
    """Direct checks of a candidate solution: residual norm, distance to
    the friction-ellipsoid boundary, mismatch between sigma and the slip
    speed it should equal, and a sampled maximum-dissipation test."""

    residual_norm: float
    ellipsoid_gap: float
    sigma_identity_gap: float
    dissipation_optimality: bool


def verify_kkt(
    sol: ContactImpulse,
    inp: StepInputs,
    n_samples: int = 1000,
    seed: int = 0,
) -> KktReport:
    """Check a candidate sliding solution against the optimality system.

    The dissipation test samples n_samples points of the friction
    ellipsoid (half on the boundary, half inside, seeded) and verifies
    none dissipates more power against the end-of-step slip velocity
    than the candidate.  For a rest record (sigma = 0) the slip is zero,
    so the gaps reduce to the (expected) interior ellipsoid gap.
    """
    p = inp.params
    f = inp.friction
    s = inp.state
    a = inp.applied
    z = (sol.p_t, sol.p_o, sol.p_r, sol.sigma)
    rn = _rnorm(z, inp)
    ell = abs(
        (sol.p_t / f.e_t) ** 2 + (sol.p_o / f.e_o) ** 2 + (sol.p_r / f.e_r) ** 2
        - (f.mu * inp.p_n) ** 2
    )
    v_x1 = s.v_x + (sol.p_t + a.p_x) / p.m
    v_y1 = s.v_y + (sol.p_o + a.p_y) / p.m
    w_z1 = s.w_z + (sol.p_r + a.p_ztau) / p.I_z
    d_x = (a.p_ytau - sol.p_t * p.q_z) / inp.p_n
    d_y = (-a.p_xtau - sol.p_o * p.q_z) / inp.p_n
    v_t = v_x1 - w_z1 * d_y
    v_o = v_y1 + w_z1 * d_x
    v_r = w_z1
    sig_gap = abs(sol.sigma - math.sqrt((f.e_t * v_t) ** 2 + (f.e_o * v_o) ** 2 + (f.e_r * v_r) ** 2))

    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n_samples, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.cbrt(rng.random(n_samples))
    radii[: n_samples // 2] = 1.0
    semi = np.array([f.e_t, f.e_o, f.e_r]) * f.mu * inp.p_n
    candidates = dirs * radii[:, None] * semi
    slip = np.array([v_t, v_o, v_r])
    d_sol = -(sol.p_t * v_t + sol.p_o * v_o + sol.p_r * v_r)
    d_best = float(np.max(-(candidates @ slip)))
    ok = d_sol >= d_best - 1e-12 * max(1.0, abs(d_sol))
    return KktReport(
        residual_norm=rn,
        ellipsoid_gap=ell,
        sigma_identity_gap=sig_gap,
        dissipation_optimality=bool(ok),
    )
