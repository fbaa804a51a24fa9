"""Slow, independent reference solver for the per-step contact problem,
plus direct optimality checks on candidate solutions.

The reference path shares no solve code with the production solver,
which walks the slip-speed-parameterized solution curve.  It lists a
step's solutions instead: along the exact solution curve of the three
tangential equations, clearing denominators turns the ellipsoid gap into
one polynomial of degree 10 in the slip speed sigma.  Each positive real
root is polished by damped Newton iteration on all four equations, and
the smallest root that polishes is returned.  Only the solver module's
evaluation of the system is reused: its residual and Jacobian, and the
plain-float residual norm that residual wraps, which keeps the two
solution methods disjoint.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import Polynomial

from .core import ContactImpulse, StepInputs, value_type
from .errors import OracleFailure
from .solver import _residual_norm, _unpack, jacobian, residual

__all__ = ["KktReport", "oracle_solve_step", "verify_kkt"]

# a polished root must reach the target, relative to max(1, (mu*p_n)^2);
# failing that, the best polished point must reach the floor
_TARGET_REL = 1e-12
_FLOOR_REL = 1e-7
_NEWTON_ITERS = 100


def _rnorm(z: tuple[float, float, float, float], inp: StepInputs) -> float:
    return _residual_norm(z, _unpack(inp))


def oracle_solve_step(inp: StepInputs) -> ContactImpulse:
    """Solve one implicit step by listing the roots of its gap polynomial.

    A rest-reachable step (stopping impulse inside the friction
    ellipsoid) returns the stopping impulse with zero slip speed,
    mirroring the fast solver's convention.  Otherwise every positive
    real root of the step's degree-10 polynomial in sigma (see _roots) is
    polished by four-equation Newton, and the smallest sigma whose
    residual meets _TARGET_REL relative to max(1, (mu*p_n)^2) is
    returned: where a step has several sliding solutions, the oracle
    names the one of least slip speed, whatever the solver's warm start
    selects.  When no root meets that target, the polished point of least
    residual is returned if it is within _FLOOR_REL; otherwise
    OracleFailure is raised.  Deterministic by construction: no start,
    restart or search order depends on anything but the inputs.
    """
    s, a, p, f = inp.state, inp.applied, inp.params, inp.friction
    mu_pn = f.mu * inp.p_n
    scale = max(1.0, mu_pn * mu_pn)

    stop_t = -(p.m * s.v_x + a.p_x)
    stop_o = -(p.m * s.v_y + a.p_y)
    stop_r = -(p.I_z * s.w_z + a.p_ztau)
    x_t, x_o, x_r = stop_t / f.e_t, stop_o / f.e_o, stop_r / f.e_r
    if x_t * x_t + x_o * x_o + x_r * x_r <= mu_pn * mu_pn:
        return ContactImpulse(p_t=stop_t, p_o=stop_o, p_r=stop_r, sigma=0.0, p_n=inp.p_n)

    found = _roots(inp)
    roots = [c for c in found if c[1] <= _TARGET_REL * scale]
    z, rn = roots[0] if roots else min(found, key=lambda c: c[1], default=(None, math.inf))
    if rn > _FLOOR_REL * scale:
        raise OracleFailure(
            f"residual floor not reached: {rn:.3e} > {_FLOOR_REL * scale:.3e}"
        )
    return ContactImpulse(p_t=z[0], p_o=z[1], p_r=z[2], sigma=z[3], p_n=inp.p_n)


def _roots(inp: StepInputs) -> list[tuple[tuple[float, float, float, float], float]]:
    """The step's sliding solutions, listed from one polynomial.

    On the curve of the three tangential equations, with S = sigma +
    gamma/I_z (gamma = mu*p_n*e_r^2) and W0 = w_z + p_ztau/I_z, the
    rotational equation gives p_r*S = -gamma*W0 and the end-of-step spin
    W*S = W0*sigma.  The translational 2x2 system then has determinant
    D/S^2, with D the quartic below, and p_t = N_t/D, p_o = N_o/D for
    the cubics N_t and N_o.  The ellipsoid gap times S^2*D^2 is G, of
    degree 10; S > 0 and D > 0 for sigma >= 0, so G's positive roots are
    exactly the step's sliding solutions.  Each real positive root seeds
    _newton at its point of the curve.  A spurious root (roundoff in the
    coefficients, near where S vanishes, say) polishes onto a true one or
    stays off the target.  Returns the polished points with sigma > 0 and
    their residual norms, sorted by sigma, with points whose sigma agree
    to 1e-9 relative merged into the one of least residual.
    """
    (m, I_z, q_z, mu, e_t, e_o, e_r,
     v_x, v_y, w_z, p_x, p_y, p_xtau, p_ytau, p_ztau, p_n) = _unpack(inp)
    mu_pn = mu * p_n
    alpha, beta, gamma = mu_pn * e_t * e_t, mu_pn * e_o * e_o, mu_pn * e_r * e_r
    q_t, q_o = alpha * q_z / p_n, beta * q_z / p_n
    W0 = w_z + p_ztau / I_z
    sig = Polynomial([0.0, 1.0])
    S = sig + gamma / I_z
    A11, A22 = sig + alpha / m, sig + beta / m
    # the right side of the 2x2 system, times S
    b1 = -alpha * ((v_x + p_x / m) * S + p_xtau / p_n * W0 * sig)
    b2 = -beta * ((v_y + p_y / m) * S + p_ytau / p_n * W0 * sig)
    D = A11 * A22 * S * S + q_t * q_o * W0 * W0 * sig * sig
    N_t = b1 * A22 * S - q_t * W0 * sig * b2
    N_o = A11 * S * b2 + q_o * W0 * sig * b1
    g_r = gamma * W0 / e_r
    G = mu_pn * mu_pn * S * S * D * D - g_r * g_r * D * D - S * S * (
        (N_t / e_t) * (N_t / e_t) + (N_o / e_o) * (N_o / e_o))

    found = []
    for root in G.roots():
        # a real root can come back with a roundoff imaginary part: keep
        # near-real ones and let the polishing decide
        s = root.real
        if not (s > 0.0 and abs(root.imag) <= 1e-6 * s):
            continue
        seed = (N_t(s) / D(s), N_o(s) / D(s), -gamma * W0 / S(s), s)
        z, rn = _newton(seed, inp)
        if z[3] > 0.0:
            found.append((z, rn))
    found.sort(key=lambda c: c[0][3])
    merged = []
    for z, rn in found:
        if merged and z[3] - merged[-1][0][3] <= 1e-9 * z[3]:
            if rn < merged[-1][1]:
                merged[-1] = (z, rn)
        else:
            merged.append((z, rn))
    return merged


def _newton(z0, inp: StepInputs) -> tuple[tuple[float, float, float, float], float]:
    """Damped Newton on all four equations with backtracking on ||F||^2,
    until a step no longer lowers ||F||^2: from a seed near a root, that
    polishes it to roundoff.  Returns the last iterate and its residual
    norm."""
    z = np.asarray(z0, dtype=float)
    F = residual(tuple(z), inp)
    for _ in range(_NEWTON_ITERS):
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
        if not float(F_try @ F_try) < merit:
            break
        z, F = z_try, F_try
    return tuple(float(c) for c in z), float(np.max(np.abs(F)))


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
