"""Slow, independent reference solver for the per-step contact problem,
plus direct optimality checks on candidate solutions.

The reference path shares no solve code with the production solver,
which walks the slip-speed-parameterized solution curve.  It lists a
step's solutions instead: along the exact solution curve of the three
tangential equations, clearing denominators turns the ellipsoid gap into
one polynomial of degree 10 in the slip speed sigma.  Each positive real
root is polished by damped Newton iteration on all four equations, and
the smallest root that polishes is returned.  Only the solver module's
evaluation of the system and its acceptance contract are reused (residual,
jacobian, _residual_norm, _largest_summand, _TOL and _FLOOR_ULPS), which
keeps the two solution methods disjoint.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import Polynomial

from .core import ContactImpulse, StepInputs, value_type
from .errors import OracleFailure
from .solver import _FLOOR_ULPS, _TOL, _largest_summand, _residual_norm, _unpack, jacobian, residual

__all__ = ["KktReport", "oracle_solve_step", "verify_kkt"]

# when no polished root meets the solver's contract, the best polished
# point must be within this share of (mu*p_n)^2
_FLOOR_REL = 1e-7
_NEWTON_ITERS = 100


def oracle_solve_step(inp: StepInputs) -> ContactImpulse:
    """Solve one implicit step by listing the roots of its gap polynomial.

    A rest-reachable step (stopping impulse inside the friction
    ellipsoid) returns the stopping impulse with zero slip speed,
    mirroring the fast solver's convention.  Otherwise every positive
    real root of the step's degree-10 polynomial in sigma (see _roots) is
    polished by four-equation Newton, and the smallest sigma whose
    residual meets the solver's own contract (_TOL relative to
    (mu*p_n)^2, or _FLOOR_ULPS ulps of the residual's largest summand) is
    returned: where a step has several sliding solutions, the oracle names
    the one of least slip speed, whatever the solver's warm start selects.
    Failing that, the polished point of least residual is returned if it
    is within _FLOOR_REL of (mu*p_n)^2; otherwise OracleFailure is raised.
    Deterministic by construction: no start, restart or search order
    depends on anything but the inputs.
    """
    s, a, p, f = inp.state, inp.applied, inp.params, inp.friction
    mu_pn = f.mu * inp.p_n
    mu_pn_sq = mu_pn * mu_pn

    stop_t = -(p.m * s.v_x + a.p_x)
    stop_o = -(p.m * s.v_y + a.p_y)
    stop_r = -(p.I_z * s.w_z + a.p_ztau)
    x_t, x_o, x_r = stop_t / f.e_t, stop_o / f.e_o, stop_r / f.e_r
    if x_t * x_t + x_o * x_o + x_r * x_r <= mu_pn_sq:
        return ContactImpulse(p_t=stop_t, p_o=stop_o, p_r=stop_r, sigma=0.0, p_n=inp.p_n)

    k = _unpack(inp)
    found = _roots(inp)
    roots = [c for c in found
             if c[1] <= _TOL * mu_pn_sq or c[1] <= _FLOOR_ULPS * math.ulp(_largest_summand(c[0], k))]
    z, rn = roots[0] if roots else min(found, key=lambda c: c[1], default=(None, math.inf))
    if rn > _FLOOR_REL * mu_pn_sq:
        raise OracleFailure(
            f"residual floor not reached: {rn:.3e} > {_FLOOR_REL * mu_pn_sq:.3e}"
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
    speed it should equal, and the exact maximum-dissipation test."""

    residual_norm: float
    ellipsoid_gap: float
    sigma_identity_gap: float
    dissipation_optimality: bool


def verify_kkt(sol: ContactImpulse, inp: StepInputs) -> KktReport:
    """Check a candidate solution against the optimality system.

    No impulse in the friction ellipsoid dissipates more power against the
    end-of-step slip v than its support function mu*p_n*||E v||, E =
    diag(e_t, e_o, e_r): mu*p_n times the slip speed sigma should equal.
    The candidate passes the dissipation test when its own dissipation
    -p.v falls short of that by at most 1e-9 of the slip's roundoff scale
    mu*p_n*||E u||, u summing the magnitudes of the terms of each slip
    component.  Rest candidates (sigma = 0, a slip of roundoff) are held to
    the same rule.
    """
    p, f, s, a, p_n = inp.params, inp.friction, inp.state, inp.applied, inp.p_n
    p_t, p_o, p_r = sol.p_t, sol.p_o, sol.p_r
    mu_pn = f.mu * p_n
    rn = _residual_norm((p_t, p_o, p_r, sol.sigma), _unpack(inp))
    ell = abs((p_t / f.e_t) ** 2 + (p_o / f.e_o) ** 2 + (p_r / f.e_r) ** 2 - mu_pn ** 2)
    # the slip at the candidate's ECP, and the same sums in magnitudes
    w_z1 = s.w_z + (p_r + a.p_ztau) / p.I_z
    v_t = s.v_x + (p_t + a.p_x) / p.m + w_z1 * ((a.p_xtau + p_o * p.q_z) / p_n)
    v_o = s.v_y + (p_o + a.p_y) / p.m + w_z1 * ((a.p_ytau - p_t * p.q_z) / p_n)
    u_r = abs(s.w_z) + (abs(p_r) + abs(a.p_ztau)) / p.I_z
    u_t = abs(s.v_x) + (abs(p_t) + abs(a.p_x)) / p.m + u_r * ((abs(a.p_xtau) + abs(p_o * p.q_z)) / p_n)
    u_o = abs(s.v_y) + (abs(p_o) + abs(a.p_y)) / p.m + u_r * ((abs(a.p_ytau) + abs(p_t * p.q_z)) / p_n)
    speed = math.sqrt((f.e_t * v_t) ** 2 + (f.e_o * v_o) ** 2 + (f.e_r * w_z1) ** 2)
    scale = mu_pn * math.sqrt((f.e_t * u_t) ** 2 + (f.e_o * u_o) ** 2 + (f.e_r * u_r) ** 2)
    shortfall = mu_pn * speed + (p_t * v_t + p_o * v_o + p_r * w_z1)
    return KktReport(rn, ell, abs(sol.sigma - speed), shortfall <= 1e-9 * scale)
