"""Per-step quadratic system: residual, Jacobian, max-dissipation closed
form, and the damped-Newton solve with its rest handling.

The frozen impulse values below were produced by a standalone fixed-point
reference implementation kept in scripts/freeze_step1.py; the solver must
reproduce them without sharing any code with that script.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from patchslide import (
    AppliedImpulse,
    ContactImpulse,
    FrictionParams,
    NoConvergenceError,
    PolygonPatch,
    SliderParams,
    SliderState,
    SlipVelocity,
    StepInputs,
    ValidationError,
    ZeroSlipError,
    assemble_inputs,
    jacobian,
    max_dissipation_impulse,
    residual,
    simulate,
    solve_step,
    solve_step_info,
)
import patchslide.solver as solver_module
from patchslide.solver import rest_reachable, stopping_impulse

from conftest import make_sliding_inputs

SQUARE = PolygonPatch(((-0.025, -0.025), (0.025, -0.025), (0.025, 0.025), (-0.025, 0.025)))

# first step of the square-slider spin-down run, frozen from the
# independent fixed-point reference (residuals there were ~1e-19)
STEP1_P_T = -0.006488393638943741
STEP1_P_O = -0.013663712133017345
STEP1_P_R = -1.3927737548320742e-05
STEP1_SIGMA = 1.087591396720033
STEP1_V_X = 0.6870232127221124
STEP1_V_Y = 0.8726725757339653
STEP1_W_Z = 9.972144524903358


def step1_inputs() -> StepInputs:
    params = SliderParams(m=0.5, I_z=5e-4, q_z=0.08, g=9.8, patch=SQUARE)
    friction = FrictionParams(mu=0.31, e_t=1.0, e_o=1.0, e_r=0.01)
    state = SliderState(q_x=0.0, q_y=0.0, theta_z=0.0, v_x=0.7, v_y=0.9, w_z=10.0, t=0.0)
    return StepInputs(
        params=params, friction=friction, state=state,
        applied=AppliedImpulse(), p_n=0.01 * 0.5 * 9.8,
    )


def rest_state_inputs() -> StepInputs:
    params = SliderParams(m=0.5, I_z=5e-4, q_z=0.08, g=9.8, patch=SQUARE)
    friction = FrictionParams(mu=0.31, e_t=1.0, e_o=1.0, e_r=0.01)
    state = SliderState(q_x=0.0, q_y=0.0, theta_z=0.0, v_x=0.0, v_y=0.0, w_z=0.0, t=0.0)
    return StepInputs(
        params=params, friction=friction, state=state,
        applied=AppliedImpulse(), p_n=0.049,
    )


def end_of_step_slip(z, inp: StepInputs) -> SlipVelocity:
    p_t, p_o, p_r, _ = z
    m, I_z, q_z = inp.params.m, inp.params.I_z, inp.params.q_z
    s, a = inp.state, inp.applied
    v_x1 = s.v_x + (p_t + a.p_x) / m
    v_y1 = s.v_y + (p_o + a.p_y) / m
    w_z1 = s.w_z + (p_r + a.p_ztau) / I_z
    d_x = (a.p_ytau - p_t * q_z) / inp.p_n
    d_y = (-a.p_xtau - p_o * q_z) / inp.p_n
    return SlipVelocity(v_t=v_x1 - w_z1 * d_y, v_o=v_y1 + w_z1 * d_x, v_r=w_z1)


# ------------------------------------------------------------------ residual

def test_residual_at_rest_state_is_pure_ellipsoid_term():
    inp = rest_state_inputs()
    mu_pn_sq = (0.31 * 0.049) ** 2
    for sigma in (0.0, 0.5, 2.0):
        F = residual((0.0, 0.0, 0.0, sigma), inp)
        assert F[0] == 0.0
        assert F[1] == 0.0
        assert F[2] == 0.0
        assert F[3] == mu_pn_sq


def test_residual_vanishes_at_frozen_step1_solution():
    inp = step1_inputs()
    scale = (0.31 * 0.049) ** 2
    F = residual((STEP1_P_T, STEP1_P_O, STEP1_P_R, STEP1_SIGMA), inp)
    assert float(np.max(np.abs(F))) < 1e-10 * scale


def test_residual_vanishes_on_pure_translation_closed_form():
    # w_z = 0, no torques, e_t = e_o: the closed-form impulse is a root
    from patchslide import pure_translation_step

    params = SliderParams(m=0.7, I_z=1e-3, q_z=0.05, g=9.8, patch=SQUARE)
    friction = FrictionParams(mu=0.4, e_t=1.3, e_o=1.3, e_r=0.02)
    state = SliderState(q_x=0, q_y=0, theta_z=0, v_x=0.8, v_y=-0.5, w_z=0.0, t=0.0)
    p_n = 0.01 * 0.7 * 9.8
    applied = AppliedImpulse(p_x=0.003, p_y=-0.001)
    inp = StepInputs(params=params, friction=friction, state=state, applied=applied, p_n=p_n)
    res = pure_translation_step((0.8, -0.5), (0.003, -0.001), p_n, friction, 0.7)
    assert not res.rest
    F = residual((res.p_t, res.p_o, 0.0, res.sigma), inp)
    assert float(np.max(np.abs(F))) < 1e-14


# ------------------------------------------------------------------ jacobian

def test_jacobian_fixed_entries():
    inp = step1_inputs()
    mu, e_r, I_z = 0.31, 0.01, 5e-4
    p_n = inp.p_n
    for z in [(0.01, -0.02, 1e-4, 0.7), (STEP1_P_T, STEP1_P_O, STEP1_P_R, STEP1_SIGMA)]:
        J = jacobian(z, inp)
        assert J[3, 3] == 0.0  # the ellipsoid equation has no sigma term
        assert J[2, 0] == 0.0 and J[2, 1] == 0.0
        assert J[2, 2] == pytest.approx(mu * p_n * e_r ** 2 / I_z + z[3], rel=1e-15)
        assert J[2, 3] == z[2]


def test_jacobian_matches_central_differences():
    # the system is quadratic, so central differences are exact up to roundoff
    rng = np.random.default_rng(7)
    inputs = make_sliding_inputs(seed=11, n=40)
    worst = 0.0
    for inp in inputs:
        for _ in range(5):
            z = (
                rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05),
                rng.uniform(-0.005, 0.005), rng.uniform(0.0, 3.0),
            )
            J = jacobian(z, inp)
            J_fd = np.empty((4, 4))
            for j in range(4):
                hj = 1e-6 * max(1.0, abs(z[j]))
                zp = list(z); zp[j] += hj
                zm = list(z); zm[j] -= hj
                J_fd[:, j] = (residual(tuple(zp), inp) - residual(tuple(zm), inp)) / (2 * hj)
            rel = np.abs(J_fd - J) / np.maximum(1.0, np.abs(J))
            worst = max(worst, float(rel.max()))
    assert worst < 1e-6


# ------------------------------------------------- max_dissipation_impulse

def test_max_dissipation_axis_aligned():
    f = FrictionParams(mu=1.0, e_t=1.0, e_o=1.0, e_r=1.0)
    imp = max_dissipation_impulse(SlipVelocity(1.0, 0.0, 0.0), 0.1, f)
    assert imp.p_t == pytest.approx(-0.1, abs=1e-18)
    assert imp.p_o == 0.0
    assert imp.p_r == 0.0
    assert imp.sigma == pytest.approx(1.0, abs=1e-15)


def test_max_dissipation_homogeneous_in_slip_speed():
    f = FrictionParams(mu=0.31, e_t=1.0, e_o=2.0, e_r=0.01)
    base = max_dissipation_impulse(SlipVelocity(0.6, 0.8, 3.0), 0.049, f)
    for k in (0.5, 2.0, 17.0):
        scaled = max_dissipation_impulse(SlipVelocity(0.6 * k, 0.8 * k, 3.0 * k), 0.049, f)
        assert scaled.p_t == pytest.approx(base.p_t, rel=1e-14)
        assert scaled.p_o == pytest.approx(base.p_o, rel=1e-14)
        assert scaled.p_r == pytest.approx(base.p_r, rel=1e-14)
        assert scaled.sigma == pytest.approx(k * base.sigma, rel=1e-14)


def test_max_dissipation_beats_dense_ellipsoid_sample():
    # anisotropic case checked against an exhaustive direction sample
    f = FrictionParams(mu=1.0, e_t=1.0, e_o=2.0, e_r=0.01)
    mu_pn = 0.05
    v = SlipVelocity(0.3, -0.4, 5.0)
    imp = max_dissipation_impulse(v, mu_pn, f)
    # Fibonacci sphere, mapped onto the ellipsoid surface
    n = 200_000
    i = np.arange(n)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    zc = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(1.0 - zc ** 2)
    dirs = np.stack([r * np.cos(phi), r * np.sin(phi), zc], axis=1)
    semi = np.array([f.e_t, f.e_o, f.e_r]) * mu_pn
    cand = dirs * semi
    slip = np.array([v.v_t, v.v_o, v.v_r])
    d_best = float(np.max(-(cand @ slip)))
    d_sol = -(imp.p_t * v.v_t + imp.p_o * v.v_o + imp.p_r * v.v_r)
    assert d_sol >= d_best - 1e-15            # optimal over the sample
    assert d_sol - d_best <= 1e-4 * d_sol     # and the sample is dense enough
    # boundary membership
    lhs = (imp.p_t / f.e_t) ** 2 + (imp.p_o / f.e_o) ** 2 + (imp.p_r / f.e_r) ** 2
    assert lhs == pytest.approx(mu_pn ** 2, rel=1e-14)


def test_max_dissipation_zero_slip_raises():
    f = FrictionParams(mu=0.31, e_t=1.0, e_o=1.0, e_r=0.01)
    with pytest.raises(ZeroSlipError):
        max_dissipation_impulse(SlipVelocity(0.0, 0.0, 0.0), 0.049, f)


# ---------------------------------------------------------------- solve_step

def test_solve_step_matches_frozen_step1():
    imp = solve_step(step1_inputs())
    assert imp.p_t == pytest.approx(STEP1_P_T, abs=1e-10)
    assert imp.p_o == pytest.approx(STEP1_P_O, abs=1e-10)
    assert imp.p_r == pytest.approx(STEP1_P_R, abs=1e-10)
    assert imp.sigma == pytest.approx(STEP1_SIGMA, abs=1e-10)
    # end-of-step velocities implied by the impulse
    assert 0.7 + imp.p_t / 0.5 == pytest.approx(STEP1_V_X, abs=1e-10)
    assert 0.9 + imp.p_o / 0.5 == pytest.approx(STEP1_V_Y, abs=1e-10)
    assert 10.0 + imp.p_r / 5e-4 == pytest.approx(STEP1_W_Z, abs=1e-10)


def test_solve_step_warm_start_accepts_immediately():
    inp = step1_inputs()
    imp, info = solve_step_info(inp)
    assert info.iters > 0 and not info.rest
    imp2, info2 = solve_step_info(inp, guess=imp.sigma)
    assert info2.iters == 0  # convergence is checked before the first update
    assert imp2.p_t == imp.p_t and imp2.sigma == imp.sigma


# ----------------------------------------------------- roots of the gap curve

def _inputs(m, I_z, q_z, mu, e, v, applied, p_n) -> StepInputs:
    # one step's inputs from its floats: e = (e_t, e_o, e_r),
    # v = (v_x, v_y, w_z), applied = (p_x, p_y, p_z, p_xtau, p_ytau, p_ztau)
    return StepInputs(
        params=SliderParams(m=m, I_z=I_z, q_z=q_z, g=9.8, patch=SQUARE),
        friction=FrictionParams(mu, *e),
        state=SliderState(0.0, 0.0, 0.0, *v, 0.0),
        applied=AppliedImpulse(*applied), p_n=p_n,
    )


def _gap_roots(inp: StepInputs) -> list[float]:
    # every sign change of the curve's ellipsoid gap over sigma = 0 and a
    # log grid up to 1e6, each bisected down to adjacent doubles
    from patchslide.solver import _gap_curve, _unpack

    point = _gap_curve(_unpack(inp))

    def positive(sig):
        return point(sig)[1] > 0.0

    grid = [0.0, *np.logspace(-10.0, 6.0, 3000).tolist()]
    roots = []
    for lo, hi in zip(grid, grid[1:]):
        side = positive(lo)
        if side == positive(hi):
            continue
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if positive(mid) == side:
                lo = mid
            else:
                hi = mid
        roots.append(lo)
    return roots


def _four_residual_norm(imp: ContactImpulse, inp: StepInputs) -> float:
    z = (imp.p_t, imp.p_o, imp.p_r, imp.sigma)
    return float(np.max(np.abs(residual(z, inp))))


# found by a seeded scan of the gap over sliding inputs: q_z = 0, but the applied
# x/y torques couple p_t and p_o to the spin, and the gap has three roots
THREE_ROOTS_FLAT = _inputs(
    m=22.26164360730912, I_z=0.0039027695705332217, q_z=0.0, mu=0.9437036404313599,
    e=(0.9743998192820961, 0.4722237435858535, 0.0016600709478150283),
    v=(-0.0019119080115995405, 0.0008612544085703236, 0.016618134986304683),
    applied=(0.003632011792968908, 0.031057516109490254, 0.0,
             -0.0008117332109412185, 0.012047755712056836, -0.0002451507218714545),
    p_n=0.09291367125818788,
)
# the same search with q_z > 0: two roots close to zero and one far out
THREE_ROOTS_TALL = _inputs(
    m=34.608940401785595, I_z=0.004591991309526558, q_z=2.065018209085637, mu=0.2844913982878376,
    e=(3.5450930287536937, 3.7427637415687363, 0.5509703816709702),
    v=(-0.0010476667333520174, 0.0066969621485360245, -3.144354747301471),
    applied=(1.9961222174230913, 6.432245692549319, 0.0,
             0.8375831557303728, 55.81759023895566, -0.1154102299789685),
    p_n=3.7264253448051816,
)


def test_three_roots_with_q_z_zero_and_the_warm_start_picks_one():
    inp = THREE_ROOTS_FLAT
    scale = (inp.friction.mu * inp.p_n) ** 2
    roots = _gap_roots(inp)
    assert roots == pytest.approx([2.6091e-5, 1.2803e-4, 7.5143e-4], rel=1e-4)
    cold, _ = solve_step_info(inp)
    assert cold.sigma == pytest.approx(roots[2], rel=1e-12)
    assert _four_residual_norm(cold, inp) <= 1e-12 * scale
    for guess in (1e-6, 1e-4):
        warm, _ = solve_step_info(inp, guess)
        assert warm.sigma == pytest.approx(roots[0], rel=1e-12)
        assert warm.sigma != pytest.approx(cold.sigma, rel=0.5)
        assert _four_residual_norm(warm, inp) <= 1e-12 * scale


def test_three_roots_with_q_z_positive_and_a_cold_start_takes_the_largest():
    inp = THREE_ROOTS_TALL
    scale = (inp.friction.mu * inp.p_n) ** 2
    roots = _gap_roots(inp)
    assert roots == pytest.approx([0.015274, 0.052209, 1498.835], rel=1e-4)
    imp, info = solve_step_info(inp)
    assert imp.sigma == pytest.approx(1498.8, rel=1e-4)
    assert imp.sigma == pytest.approx(roots[2], rel=1e-12)
    assert info.residual_norm == _four_residual_norm(imp, inp) <= 1e-12 * scale


def test_gap_rises_without_q_z_or_applied_x_y_torques():
    # then |p_t|, |p_o| and |p_r| each fall along the curve, so the gap
    # rises, to roundoff, from g(0) < 0 and changes sign once: at the
    # solve's root
    from patchslide.solver import _gap_curve, _unpack

    grid = [0.0, *np.logspace(-10.0, 5.0, 400).tolist()]
    for inp in make_sliding_inputs(seed=41, n=200):
        inp = replace(inp, params=replace(inp.params, q_z=0.0),
                      applied=replace(inp.applied, p_xtau=0.0, p_ytau=0.0))
        point = _gap_curve(_unpack(inp))
        gaps = [point(sig)[1] for sig in grid]
        slack = 4.0 * math.ulp((inp.friction.mu * inp.p_n) ** 2)
        assert all(b >= a - slack for a, b in zip(gaps, gaps[1:]))
        changes = [i for i in range(len(grid) - 1) if (gaps[i] > 0.0) != (gaps[i + 1] > 0.0)]
        assert gaps[0] < 0.0 and len(changes) == 1
        imp, _ = solve_step_info(inp)
        assert grid[changes[0]] <= imp.sigma <= grid[changes[0] + 1]


def test_solve_step_properties_on_randomized_inputs():
    # ellipsoid boundary, dissipation opposition, the KKT consistency with
    # the max-dissipation closed form, and the sigma identity
    inputs = make_sliding_inputs(seed=23, n=300)
    rng = np.random.default_rng(5)
    for inp in inputs:
        f = inp.friction
        imp, info = solve_step_info(inp)
        assert imp.sigma >= 0.0
        scale = (f.mu * inp.p_n) ** 2
        z = (imp.p_t, imp.p_o, imp.p_r, imp.sigma)

        lhs = (imp.p_t / f.e_t) ** 2 + (imp.p_o / f.e_o) ** 2 + (imp.p_r / f.e_r) ** 2
        assert abs(lhs - scale) <= 1e-9 * scale

        v = end_of_step_slip(z, inp)
        sigma_id = math.sqrt((f.e_t * v.v_t) ** 2 + (f.e_o * v.v_o) ** 2 + (f.e_r * v.v_r) ** 2)
        assert abs(imp.sigma - sigma_id) <= 1e-8

        assert imp.p_t * v.v_t <= 1e-15
        assert imp.p_o * v.v_o <= 1e-15
        assert imp.p_r * v.v_r <= 1e-15

        ref = max_dissipation_impulse(v, inp.p_n, f)
        assert abs(imp.p_t - ref.p_t) <= 1e-8
        assert abs(imp.p_o - ref.p_o) <= 1e-8
        assert abs(imp.p_r - ref.p_r) <= 1e-8

        # sampled maximum-dissipation: no admissible impulse dissipates more
        dirs = rng.normal(size=(200, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        cand = dirs * np.array([f.e_t, f.e_o, f.e_r]) * f.mu * inp.p_n
        slip = np.array([v.v_t, v.v_o, v.v_r])
        d_sol = -(imp.p_t * v.v_t + imp.p_o * v.v_o + imp.p_r * v.v_r)
        assert d_sol >= float(np.max(-(cand @ slip))) - 1e-12 * max(1.0, abs(d_sol))


# -------------------------------------------------------------------- rest

def test_rest_detection_at_standstill():
    inp = rest_state_inputs()
    assert rest_reachable(inp)
    imp, info = solve_step_info(inp)
    assert info.rest
    assert info.iters == 0
    assert info.residual_norm == 0.0
    assert (imp.p_t, imp.p_o, imp.p_r, imp.sigma) == (0.0, 0.0, 0.0, 0.0)


def test_rest_stopping_impulse_absorbs_momentum():
    params = SliderParams(m=0.5, I_z=5e-4, q_z=0.08, g=9.8, patch=SQUARE)
    friction = FrictionParams(mu=0.31, e_t=1.0, e_o=1.0, e_r=0.01)
    state = SliderState(q_x=0, q_y=0, theta_z=0, v_x=0.02, v_y=-0.01, w_z=0.0, t=0.0)
    inp = StepInputs(params=params, friction=friction, state=state,
                     applied=AppliedImpulse(), p_n=0.049)
    assert rest_reachable(inp)  # |m v| = 0.0112 < mu p_n = 0.015190
    imp, info = solve_step_info(inp)
    assert info.rest and imp.sigma == 0.0
    assert imp.p_t == -0.5 * 0.02
    assert imp.p_o == -0.5 * -0.01
    assert imp.p_r == 0.0
    assert stopping_impulse(inp) == (imp.p_t, imp.p_o, imp.p_r)
    # the stopping impulse is strictly inside the ellipsoid
    lhs = imp.p_t ** 2 + imp.p_o ** 2 + (imp.p_r / 0.01) ** 2
    assert lhs < (0.31 * 0.049) ** 2


def test_fast_slider_cannot_rest_in_one_step():
    assert not rest_reachable(step1_inputs())


def test_public_rest_test_agrees_with_the_solve_bit_for_bit():
    # inputs shrunk toward rest by factors down to 1e-3 straddle the
    # ellipsoid boundary; on each, rest_reachable decides the solve's rest
    # branch and stopping_impulse is its impulse, bit for bit
    rng = np.random.default_rng(17)
    n_rest = 0
    for inp in make_sliding_inputs(17, 300):
        f = 10.0 ** rng.uniform(-3.0, 0.0)
        s, a = inp.state, inp.applied
        inp = replace(
            inp,
            state=replace(s, v_x=f * s.v_x, v_y=f * s.v_y, w_z=f * s.w_z),
            applied=replace(a, p_x=f * a.p_x, p_y=f * a.p_y, p_ztau=f * a.p_ztau),
        )
        imp, info = solve_step_info(inp)
        reachable = rest_reachable(inp)
        assert reachable == (info.iters == 0 and imp.sigma == 0.0)
        if reachable:
            n_rest += 1
            assert info.rest
            assert stopping_impulse(inp) == (imp.p_t, imp.p_o, imp.p_r)
    assert 30 <= n_rest <= 270


def test_rest_test_overflow_is_validation_error():
    # finite inputs whose stopping impulse overflows when squared in
    # ellipsoid units: a documented error, never a raw OverflowError
    inp = replace(step1_inputs(), applied=AppliedImpulse(p_ztau=1e306))
    assert all(map(math.isfinite, stopping_impulse(inp)))
    with pytest.raises(ValidationError, match="load is too large"):
        rest_reachable(inp)
    with pytest.raises(ValidationError, match="load is too large"):
        solve_step_info(inp)


def test_normal_load_whose_square_overflows_is_validation_error():
    # (mu*p_n)^2 overflows: the rest test has no bound to compare against
    inp = replace(step1_inputs(), p_n=1e200)
    with pytest.raises(ValidationError, match="load is too large"):
        rest_reachable(inp)
    with pytest.raises(ValidationError, match="load is too large"):
        solve_step_info(inp)


def test_ellipsoid_constants_whose_squares_leave_the_doubles_are_validation_errors(tmp_path, capsys):
    # the solve squares e_t, e_o and e_r and divides 2 by each square; a
    # constant whose square overflows (1e160) or underflows to zero
    # (1e-170), or whose 2/e^2 overflows (1e-154), is rejected where the
    # friction parameters are made, so a scenario file holding one fails to
    # load and the CLI exits 1
    from patchslide import bundled_scenario_text, loads_scenario
    from patchslide.cli import main

    text = bundled_scenario_text("example1")
    for e in (1e-170, 1e-154, 1e160):
        with pytest.raises(ValidationError, match="friction ellipsoid constants are out of range"):
            FrictionParams(mu=0.31, e_t=1.0, e_o=e, e_r=0.01)
        bad = text.replace("e_o: 1.0", f"e_o: {e:.1e}")
        assert bad != text
        with pytest.raises(ValidationError, match="friction ellipsoid constants are out of range"):
            loads_scenario(bad)
        path = tmp_path / "bad.yaml"
        path.write_text(bad)
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "bad.csv")]) == 1
        assert "friction ellipsoid constants are out of range" in capsys.readouterr().err
    assert not (tmp_path / "bad.csv").exists()


def test_no_convergence_raised_when_iteration_cap_exhausted(monkeypatch):
    inp = step1_inputs()
    monkeypatch.setattr(solver_module, "_MAX_ITER", 1)
    with pytest.raises(NoConvergenceError, match="in 1 iterations"):
        solve_step(inp)


def test_solver_guess_must_not_poison_the_solve():
    # a wildly wrong warm start still converges via the restarts
    inp = step1_inputs()
    bad = ContactImpulse(p_t=0.015, p_o=0.015, p_r=1e-4, sigma=40.0, p_n=inp.p_n)
    imp = solve_step(inp, guess=bad.sigma)
    assert imp.p_t == pytest.approx(STEP1_P_T, abs=1e-8)
    assert imp.sigma == pytest.approx(STEP1_SIGMA, abs=1e-8)


def test_solve_step_cold_and_warm_starts_agree_with_oracle():
    # the bracket that first contains the warm start holds the same root
    # as the cold start's on every randomized input
    from patchslide import oracle_solve_step

    for inp in make_sliding_inputs(seed=23, n=300):
        ref = oracle_solve_step(inp)
        off = ContactImpulse(p_t=1.1 * ref.p_t, p_o=1.1 * ref.p_o, p_r=1.1 * ref.p_r,
                             sigma=1.1 * ref.sigma, p_n=inp.p_n)
        for got in (solve_step(inp), solve_step(inp, guess=off.sigma)):
            assert abs(got.p_t - ref.p_t) <= 1e-9
            assert abs(got.p_o - ref.p_o) <= 1e-9
            assert abs(got.p_r - ref.p_r) <= 1e-9
            assert abs(got.sigma - ref.sigma) <= 1e-9


def test_cold_start_from_rest_takes_the_applied_velocity(ex1_scenario):
    # a slider at rest has no slip direction of its own: the cold start
    # takes the max-dissipation slip speed of the velocity the applied
    # impulse alone would give
    from patchslide import AppliedWrench, ConstantSchedule, oracle_solve_step

    at_rest = replace(ex1_scenario.initial, v_x=0.0, v_y=0.0, w_z=0.0)
    pushed = ConstantSchedule(AppliedWrench(lambda_x=3.0, lambda_y=-1.0, lambda_ztau=0.01))
    inp = assemble_inputs(at_rest, replace(ex1_scenario, initial=at_rest, schedule=pushed))
    assert not rest_reachable(inp)
    imp, info = solve_step_info(inp)
    assert info.iters == 2
    assert imp.sigma == pytest.approx(0.0328014, abs=1e-7)
    ref = oracle_solve_step(inp)
    for got, want in zip((imp.p_t, imp.p_o, imp.p_r, imp.sigma), (ref.p_t, ref.p_o, ref.p_r, ref.sigma)):
        assert abs(got - want) <= 1e-6


def test_zero_tolerance_stops_at_the_roundoff_floor(monkeypatch):
    # a target below roundoff is met by the 8-ulp floor, not by exhausting
    # the iterations
    inp = step1_inputs()
    monkeypatch.setattr(solver_module, "_TOL", 0.0)
    imp, info = solve_step_info(inp)
    assert info.iters < 10
    # the largest summand of step 1 is |p_o| * sigma < 0.02
    assert info.residual_norm <= 8 * math.ulp(0.02)
    assert imp.sigma == pytest.approx(STEP1_SIGMA, abs=1e-12)


def test_curve_gap_and_reported_norm_are_the_full_residuals():
    # the solve accepts on the curve's gap before evaluating the other three
    # residuals, so that gap must be the fourth residual bit for bit, and the
    # reported norm must still be the four-residual norm
    from patchslide.solver import _gap_curve, _residuals, _unpack

    for inp in make_sliding_inputs(seed=23, n=300):
        imp, info = solve_step_info(inp)
        k = _unpack(inp)
        point = _gap_curve(k)
        for sig in (0.0, 0.5 * imp.sigma, imp.sigma, 2.0 * imp.sigma):
            z, gap, _ = point(sig)
            assert gap == _residuals(z, k)[3]
        z = (imp.p_t, imp.p_o, imp.p_r, imp.sigma)
        assert info.residual_norm == float(np.max(np.abs(residual(z, inp))))


def test_inline_curve_is_the_gap_curve_bit_for_bit():
    # solve_step_info evaluates _gap_curve's expressions inline rather than
    # through the closure; the point it returns must be the closure's at the
    # returned sigma, and its norm the four-residual norm there, to the bit
    from patchslide.solver import _gap_curve, _residuals, _unpack

    def bits(xs):
        return tuple(x.hex() for x in xs)

    for inp in make_sliding_inputs(seed=23, n=300):
        k = _unpack(inp)
        cold, _ = solve_step_info(inp)
        off = ContactImpulse(p_t=1.1 * cold.p_t, p_o=1.1 * cold.p_o, p_r=1.1 * cold.p_r,
                             sigma=1.1 * cold.sigma, p_n=inp.p_n)
        for guess in (None, off.sigma):
            imp, info = solve_step_info(inp, guess)
            z, _, _ = _gap_curve(k)(imp.sigma)
            assert bits((imp.p_t, imp.p_o, imp.p_r, imp.sigma)) == bits(z)
            assert info.residual_norm.hex() == max(map(abs, _residuals(z, k))).hex()


def test_float_warm_start_equals_an_impulse_with_that_sigma():
    # a non-positive or NaN guess is a cold start
    def bits(imp, info):
        return (tuple(x.hex() for x in (imp.p_t, imp.p_o, imp.p_r, imp.sigma, imp.p_n)),
                info.iters, info.residual_norm.hex(), info.rest)

    inp = step1_inputs()
    cold = bits(*solve_step_info(inp))
    for sigma in (0.0, -1.0, math.nan):
        assert bits(*solve_step_info(inp, sigma)) == cold


def test_a_huge_or_infinite_warm_start_does_not_exhaust_the_solve():
    # from a huge warm start the bracket reaches [0, hi] with hi far above
    # the root; halving from there took 77 iterations for 1e30 and ran out
    # of iterations for 1e200, 1e300 and inf.  The solve steps to the cold
    # start instead, and an infinite guess starts cold
    inp = step1_inputs()
    cold, cold_info = solve_step_info(inp)
    assert cold_info.iters == 3
    iters = []
    for guess in (1e30, 1e200, 1e300, math.inf):
        imp, info = solve_step_info(inp, guess)
        iters.append(info.iters)
        for got, want in zip((imp.p_t, imp.p_o, imp.p_r, imp.sigma), (cold.p_t, cold.p_o, cold.p_r, cold.sigma)):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert iters == [4, 4, 4, 3]
    # and on randomized sliding inputs, every huge warm start converges
    worst = 0
    for inp in make_sliding_inputs(41, 300):
        cold = solve_step(inp)
        for guess in (1e10, 1e100, 1e300):
            imp, info = solve_step_info(inp, guess)
            worst = max(worst, info.iters)
            assert imp.sigma == pytest.approx(cold.sigma, rel=1e-9)
    assert worst <= 8


def _draw_extreme_inputs(rng: np.random.Generator) -> StepInputs:
    # a cold start far from the root: the ECP offset through q_z up to 0.5
    # and spin up to 1e3 rad/s, which the initial slip speed ignores, and
    # applied loads up to 3*mu*p_n that can nearly stop the slider in a step
    m = rng.uniform(0.1, 2.0)
    h = 0.01
    params = SliderParams(m=m, I_z=rng.uniform(1e-4, 1e-2), q_z=rng.uniform(0.0, 0.5), g=9.8, patch=SQUARE)
    friction = FrictionParams(mu=rng.uniform(0.1, 1.0), e_t=rng.uniform(0.5, 2.0),
                              e_o=rng.uniform(0.5, 2.0), e_r=rng.uniform(0.005, 0.05))
    state = SliderState(q_x=0.0, q_y=0.0, theta_z=0.0, v_x=rng.uniform(-2, 2), v_y=rng.uniform(-2, 2),
                        w_z=rng.uniform(-1e3, 1e3), t=0.0)
    p_n = h * m * 9.8
    scale = friction.mu * p_n
    applied = AppliedImpulse(
        p_x=rng.uniform(-3, 3) * scale,
        p_y=rng.uniform(-3, 3) * scale,
        p_xtau=rng.uniform(-3, 3) * scale * 0.1,
        p_ytau=rng.uniform(-3, 3) * scale * 0.1,
        p_ztau=rng.uniform(-3, 3) * scale * friction.e_r,
    )
    return StepInputs(params=params, friction=friction, state=state, applied=applied, p_n=p_n)


def test_cold_starts_far_from_the_root_take_few_iterations():
    # 3000 cold sliding inputs at the edges of the valid input space: mean
    # 3.98 and max 7 iterations, against 4.403 and 10 before the solve grew
    # its bracket 8x per step and took the linear-fractional step.  Roots
    # are checked against the oracle on every 60th input, relative to the
    # root's scale: the oracle's own residual floor is coarser on fast spins
    from patchslide import oracle_solve_step

    rng = np.random.default_rng(5)
    inputs = []
    while len(inputs) < 3000:
        inp = _draw_extreme_inputs(rng)
        if not rest_reachable(inp):
            inputs.append(inp)
    iters = []
    for i, inp in enumerate(inputs):
        imp, info = solve_step_info(inp)
        iters.append(info.iters)
        if i % 60 == 0:
            ref = oracle_solve_step(inp)
            f = inp.friction
            bound = f.mu * inp.p_n
            assert abs(imp.p_t - ref.p_t) <= 1e-9 * bound * f.e_t
            assert abs(imp.p_o - ref.p_o) <= 1e-9 * bound * f.e_o
            assert abs(imp.p_r - ref.p_r) <= 1e-9 * bound * f.e_r
            assert abs(imp.sigma - ref.sigma) <= 1e-9 * ref.sigma
    assert max(iters) <= 8
    assert sum(iters) / len(iters) < 4.2


# ------------------------------------------------- the solve's constants

def _bits(imp, info):
    return (tuple(x.hex() for x in (imp.p_t, imp.p_o, imp.p_r, imp.sigma, imp.p_n)),
            info.iters, info.residual_norm.hex(), info.rest)


def test_solve_memo_equal_but_distinct_objects_give_the_same_solve():
    # the solve reads only the values of params and friction: an equal
    # copy of either gives the same bits
    for inp in make_sliding_inputs(seed=37, n=50):
        twins = (replace(inp, params=replace(inp.params)),
                 replace(inp, friction=replace(inp.friction)),
                 replace(inp, params=replace(inp.params), friction=replace(inp.friction)))
        want = _bits(*solve_step_info(inp))
        for twin in twins:
            assert twin.params == inp.params and twin.friction == inp.friction
            assert _bits(*solve_step_info(twin)) == want
