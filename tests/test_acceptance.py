"""Acceptance gate: ten numbered criteria with pinned tolerances.

Each test registers a one-line summary; the conftest terminal hook prints
one ACCEPTANCE line per criterion at the end of the run.
"""

import math
import time

import numpy as np
import pytest

from patchslide import (
    AppliedImpulse,
    ConstantSchedule,
    AppliedWrench,
    FrictionParams,
    PolygonPatch,
    QuasiStaticInput,
    RunOptions,
    Scenario,
    SliderParams,
    SliderState,
    StepInputs,
    assemble_inputs,
    jacobian,
    oracle_solve_step,
    pure_translation_step,
    quasi_static_velocity,
    residual,
    simulate,
    slip_velocity,
    solve_step_info,
)

from conftest import make_sliding_inputs

DETAILS: dict[int, str] = {}

SQUARE = PolygonPatch(((-0.025, -0.025), (0.025, -0.025), (0.025, 0.025), (-0.025, 0.025)))


def _step_inputs_along(records, scen):
    states = [scen.initial] + [r.state for r in records[:-1]]
    return [(assemble_inputs(s_u, scen), rec) for s_u, rec in zip(states, records)]


def test_criterion_01_cross_model_agreement(ex1_scenario, ex1_records, ex3_scenario, ex3_records):
    # solver vs oracle: every impulse and velocity component within 1e-6,
    # every step of examples 1 and 3, in under 30 s
    t0 = time.perf_counter()
    worst = 0.0
    steps = 0
    for scen, records in ((ex1_scenario, ex1_records), (ex3_scenario, ex3_records)):
        m, I_z = scen.params.m, scen.params.I_z
        for inputs, rec in _step_inputs_along(records, scen):
            ref = oracle_solve_step(inputs)
            fast = rec.impulses
            dev = max(
                abs(fast.p_t - ref.p_t),
                abs(fast.p_o - ref.p_o),
                abs(fast.p_r - ref.p_r),
                abs(fast.p_t - ref.p_t) / m,
                abs(fast.p_o - ref.p_o) / m,
                abs(fast.p_r - ref.p_r) / I_z,
            )
            worst = max(worst, dev)
            assert dev <= 1e-6
            steps += 1
    elapsed = time.perf_counter() - t0
    assert steps == len(ex1_records) + len(ex3_records) == 345
    assert elapsed < 30.0
    DETAILS[1] = f"{steps} steps, max deviation {worst:.2e} <= 1e-6, {elapsed:.1f} s"


def test_criterion_02_friction_ellipsoid_boundary(ex1_scenario, ex1_records, ex2_scenario,
                                                  ex2_records, ex3_scenario, ex3_records):
    # sliding impulses sit on the ellipsoid to 1e-9 relative; the single
    # rest record is the zero-slip branch and is strictly interior
    worst = 0.0
    checked = 0
    rest_rows = 0
    for scen, records in ((ex1_scenario, ex1_records), (ex2_scenario, ex2_records),
                          (ex3_scenario, ex3_records)):
        f = scen.friction
        for rec in records:
            i = rec.impulses
            if i.sigma == 0.0:
                lhs = (i.p_t / f.e_t) ** 2 + (i.p_o / f.e_o) ** 2 + (i.p_r / f.e_r) ** 2
                assert lhs < (f.mu * i.p_n) ** 2
                rest_rows += 1
                continue
            target = (f.mu * i.p_n) ** 2
            lhs = (i.p_t / f.e_t) ** 2 + (i.p_o / f.e_o) ** 2 + (i.p_r / f.e_r) ** 2
            gap = abs(lhs - target) / target
            worst = max(worst, gap)
            assert gap <= 1e-9
            checked += 1
    assert rest_rows == 1
    DETAILS[2] = f"{checked} sliding steps, max relative gap {worst:.2e} <= 1e-9"


def test_criterion_03_sigma_identity(ex1_scenario, ex1_records, ex2_scenario, ex2_records,
                                     ex3_scenario, ex3_records):
    # sigma equals the generalized slip speed at the end-of-step state and
    # the recorded contact point, every step (rest rows are exactly 0 = 0)
    worst = 0.0
    checked = 0
    for scen, records in ((ex1_scenario, ex1_records), (ex2_scenario, ex2_records),
                          (ex3_scenario, ex3_records)):
        f = scen.friction
        for rec in records:
            d = (rec.ecp.a_x - rec.state.q_x, rec.ecp.a_y - rec.state.q_y)
            v = slip_velocity(rec.state, d)
            speed = math.sqrt((f.e_t * v.v_t) ** 2 + (f.e_o * v.v_o) ** 2 + (f.e_r * v.v_r) ** 2)
            gap = abs(rec.impulses.sigma - speed)
            worst = max(worst, gap)
            assert gap <= 1e-8
            checked += 1
    DETAILS[3] = f"{checked} steps, max |sigma - slip speed| {worst:.2e} <= 1e-8"


def test_criterion_04_closed_form_equivalence():
    # (a) 1000 randomized pure-translation inputs: implicit solve matches
    # the closed form within 1e-10 per component
    rng = np.random.default_rng(104)
    checked = 0
    worst = 0.0
    while checked < 1000:
        m = float(rng.uniform(0.1, 2.0))
        e = float(rng.uniform(0.5, 2.0))
        f = FrictionParams(mu=float(rng.uniform(0.1, 1.0)), e_t=e, e_o=e,
                           e_r=float(rng.uniform(0.005, 0.05)))
        v = (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        p_n = 0.01 * m * 9.8
        applied = AppliedImpulse(
            p_x=float(rng.uniform(-1, 1)) * f.mu * p_n,
            p_y=float(rng.uniform(-1, 1)) * f.mu * p_n,
        )
        momentum = math.hypot(m * v[0] + applied.p_x, m * v[1] + applied.p_y)
        if momentum <= 1.05 * e * f.mu * p_n:
            continue
        params = SliderParams(m=m, I_z=1e-3, q_z=0.06, g=9.8, patch=SQUARE)
        state = SliderState(q_x=0, q_y=0, theta_z=0, v_x=v[0], v_y=v[1], w_z=0.0, t=0.0)
        inp = StepInputs(params=params, friction=f, state=state, applied=applied, p_n=p_n)
        want = pure_translation_step(v, (applied.p_x, applied.p_y), p_n, f, m)
        got, info = solve_step_info(inp)
        assert not info.rest
        v1 = (v[0] + (got.p_t + applied.p_x) / m, v[1] + (got.p_o + applied.p_y) / m)
        dev = max(
            abs(got.p_t - want.p_t),
            abs(got.p_o - want.p_o),
            abs(got.p_r),
            abs(got.sigma - want.sigma),
            abs(v1[0] - want.v_next[0]),
            abs(v1[1] - want.v_next[1]),
        )
        worst = max(worst, dev)
        assert dev <= 1e-10
        checked += 1

    # (b) the mu = 0.31 decel sequence: exactly mu*g*h = 0.030380 m/s lost
    # per step, rest on step 17 from 0.5 m/s
    assert abs(0.31 * 9.8 * 0.01 - 0.030380) < 1e-17
    scen = Scenario(
        params=SliderParams(m=0.5, I_z=5e-4, q_z=0.08, g=9.8, patch=SQUARE),
        friction=FrictionParams(mu=0.31, e_t=1.0, e_o=1.0, e_r=0.01),
        initial=SliderState(q_x=0, q_y=0, theta_z=0, v_x=0.5, v_y=0.0, w_z=0.0, t=0.0),
        schedule=ConstantSchedule(AppliedWrench.zero()),
        h=0.01,
        duration=0.5,
        options=RunOptions(),
    )
    records = simulate(scen)
    assert len(records) == 17
    assert records[-1].diagnostics.rest_flag
    speeds = [0.5] + [math.hypot(r.state.v_x, r.state.v_y) for r in records]
    decrements = [a - b for a, b in zip(speeds, speeds[1:-1])]
    assert len(decrements) == 16
    assert all(abs(d - 0.030380) <= 1e-12 for d in decrements)
    DETAILS[4] = (
        f"1000 randomized inputs, max component deviation {worst:.2e} <= 1e-10; "
        f"decrement 0.030380 m/s to 1e-12, rest at step 17"
    )


def test_criterion_05_quasi_static():
    # reconstruction of the defining identities within 1e-12; exact
    # passthrough when the pusher acts at the CM
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(1000):
        cm = rng.uniform(-0.5, 0.5, size=2)
        d = rng.uniform(-0.2, 0.2, size=2)
        v_c = rng.uniform(-1.0, 1.0, size=2)
        c = float(rng.uniform(0.01, 1.0))
        inp = QuasiStaticInput(
            contact_point=(float(cm[0] + d[0]), float(cm[1] + d[1])),
            contact_velocity=(float(v_c[0]), float(v_c[1])),
            cm=(float(cm[0]), float(cm[1])),
            c=c,
        )
        v_x, v_y, w_z = quasi_static_velocity(inp)
        r1 = abs(v_x - d[1] * w_z - v_c[0])
        r2 = abs(v_y + d[0] * w_z - v_c[1])
        r3 = abs(d[1] * v_x - d[0] * v_y + c ** 2 * w_z)
        worst = max(worst, r1, r2, r3)
        assert max(r1, r2, r3) <= 1e-12
    at_cm = quasi_static_velocity(QuasiStaticInput(
        contact_point=(0.3, -0.4), contact_velocity=(0.25, -0.75), cm=(0.3, -0.4), c=0.3))
    assert at_cm == (0.25, -0.75, 0.0)
    DETAILS[5] = f"1000 randomized inputs, max reconstruction residual {worst:.2e} <= 1e-12; CM case exact"


def test_criterion_06_sysid_round_trip(ex1_records, tmp_path):
    # noiseless example-1 trajectory recovers (0.31, 1.0, 1e-4) to 1e-6
    from patchslide import batch_estimate, observed_steps, read_trajectory, write_trajectory

    path = tmp_path / "ex1.csv"
    write_trajectory(ex1_records, path)
    steps = observed_steps(read_trajectory(path))
    est = batch_estimate(steps, m=0.5, I_z=5e-4, q_z=0.08)
    errs = (
        abs(est.et2mu - 0.31) / 0.31,
        abs(est.ratio_o - 1.0) / 1.0,
        abs(est.ratio_r - 1e-4) / 1e-4,
    )
    assert est.n_skipped == 0
    assert max(errs) <= 1e-6
    DETAILS[6] = f"(et2mu, ratio_o, ratio_r) relative errors {max(errs):.2e} <= 1e-6 from {len(steps)} transitions"


def test_criterion_07_jacobian_vs_central_differences():
    # 1000 randomized evaluation points; quadratic system, so central
    # differences agree to roundoff
    rng = np.random.default_rng(107)
    inputs = make_sliding_inputs(seed=1007, n=200)
    points = 0
    worst = 0.0
    for inp in inputs:
        for _ in range(5):
            z = (
                float(rng.uniform(-0.05, 0.05)), float(rng.uniform(-0.05, 0.05)),
                float(rng.uniform(-0.005, 0.005)), float(rng.uniform(0.0, 3.0)),
            )
            J = jacobian(z, inp)
            J_fd = np.empty((4, 4))
            for j in range(4):
                hj = 1e-6 * max(1.0, abs(z[j]))
                zp = list(z); zp[j] += hj
                zm = list(z); zm[j] -= hj
                J_fd[:, j] = (residual(tuple(zp), inp) - residual(tuple(zm), inp)) / (2 * hj)
            rel = float((np.abs(J_fd - J) / np.maximum(1.0, np.abs(J))).max())
            worst = max(worst, rel)
            assert rel <= 1e-6
            points += 1
    assert points == 1000
    DETAILS[7] = f"1000 points, max relative error {worst:.2e} <= 1e-6"


def test_criterion_08_energy_and_equivariance(ex1_scenario, ex1_records):
    # (a) kinetic energy strictly decreases across all 45 unforced steps
    m, I_z = ex1_scenario.params.m, ex1_scenario.params.I_z
    ke = [0.5 * m * (ex1_scenario.initial.v_x ** 2 + ex1_scenario.initial.v_y ** 2)
          + 0.5 * I_z * ex1_scenario.initial.w_z ** 2]
    ke += [
        0.5 * m * (r.state.v_x ** 2 + r.state.v_y ** 2) + 0.5 * I_z * r.state.w_z ** 2
        for r in ex1_records
    ]
    assert len(ke) == 46
    assert all(b < a for a, b in zip(ke, ke[1:]))

    # (b) rotating the initial velocity rotates the whole trajectory
    phi = 0.7
    c, s = math.cos(phi), math.sin(phi)
    init = ex1_scenario.initial
    rotated = Scenario(
        params=ex1_scenario.params,
        friction=ex1_scenario.friction,
        initial=SliderState(
            q_x=init.q_x, q_y=init.q_y, theta_z=init.theta_z,
            v_x=c * init.v_x - s * init.v_y,
            v_y=s * init.v_x + c * init.v_y,
            w_z=init.w_z, t=init.t,
        ),
        schedule=ex1_scenario.schedule,
        h=ex1_scenario.h,
        duration=ex1_scenario.duration,
        options=ex1_scenario.options,
    )
    rot_records = simulate(rotated)
    assert len(rot_records) == len(ex1_records)
    worst = 0.0
    for a, b in zip(ex1_records, rot_records):
        worst = max(
            worst,
            abs(c * a.state.v_x - s * a.state.v_y - b.state.v_x),
            abs(s * a.state.v_x + c * a.state.v_y - b.state.v_y),
            abs(a.state.w_z - b.state.w_z),
            abs(a.impulses.sigma - b.impulses.sigma),
            abs(math.hypot(a.ecp.a_x - a.state.q_x, a.ecp.a_y - a.state.q_y)
                - math.hypot(b.ecp.a_x - b.state.q_x, b.ecp.a_y - b.state.q_y)),
        )
    assert worst <= 1e-8
    DETAILS[8] = f"KE strictly decreasing over 45 steps; equivariance deviation {worst:.2e} <= 1e-8"


def test_criterion_09_ecp_behavior(ex1_records, ex2_records):
    # example 1: ECP inside the hull and clearly separated from the CM
    # projection on every (moving) step; example 2: final rest offset small
    min_offset = math.inf
    for rec in ex1_records:
        assert rec.ecp.in_hull
        off = math.hypot(rec.ecp.a_x - rec.state.q_x, rec.ecp.a_y - rec.state.q_y)
        min_offset = min(min_offset, off)
        assert off > 1e-4
    last = ex2_records[-1]
    assert last.diagnostics.rest_flag
    final_offset = math.hypot(last.ecp.a_x - last.state.q_x, last.ecp.a_y - last.state.q_y)
    assert final_offset <= 1e-3
    DETAILS[9] = (
        f"example 1 in-hull all steps, min CM offset {min_offset:.3e} > 1e-4; "
        f"example 2 rest offset {final_offset:.3e} <= 1e-3"
    )


def test_criterion_10_solver_speed(ex1_records, ex2_records, ex3_records):
    # mean impulse-solve wall time per step at most 1 ms
    walls = [r.diagnostics.wall_time for recs in (ex1_records, ex2_records, ex3_records)
             for r in recs]
    mean_ms = 1e3 * sum(walls) / len(walls)
    assert mean_ms <= 1.0
    DETAILS[10] = f"mean {mean_ms:.3f} ms/step over {len(walls)} steps <= 1 ms"
