"""Quasi-static pushing velocities and the pure-translation step."""

import math

import numpy as np
import pytest

from patchslide import (
    AnisotropicFrictionError,
    AppliedImpulse,
    AppliedWrench,
    ConstantSchedule,
    DiskPatch,
    FrictionParams,
    PolygonPatch,
    QuasiStaticInput,
    Scenario,
    SliderParams,
    SliderState,
    StepInputs,
    ValidationError,
    ZeroMotionError,
    loads_scenario,
    pure_translation_step,
    quasi_static_velocity,
    residual,
    simulate,
    solve_step_info,
    translation_solve,
)
from patchslide.core import ContactImpulse
from patchslide.stepper import StepDiagnostics, TrajectoryRecord, assemble_inputs, ecp

SQUARE = PolygonPatch(((-0.025, -0.025), (0.025, -0.025), (0.025, 0.025), (-0.025, 0.025)))


# ------------------------------------------------------------- quasi-static

def test_quasi_static_contact_at_cm_translates_exactly():
    inp = QuasiStaticInput(contact_point=(0.2, -0.1), contact_velocity=(0.3, 0.7),
                           cm=(0.2, -0.1), c=0.05)
    assert quasi_static_velocity(inp) == (0.3, 0.7, 0.0)


def test_quasi_static_push_through_cm_line():
    # contact offset and velocity both along x: pure translation
    inp = QuasiStaticInput(contact_point=(0.05, 0.0), contact_velocity=(0.4, 0.0), c=0.01)
    v_x, v_y, w_z = quasi_static_velocity(inp)
    assert w_z == 0.0
    assert v_y == 0.0
    assert v_x == 0.4


def test_quasi_static_frozen_side_push():
    # offset (0.05, 0), contact velocity (0, 0.1), c = 0.01:
    # w_z = 0.005/0.0026 = 25/13, v_y = 0.1 - w_z*0.05 = 0.05/13
    inp = QuasiStaticInput(contact_point=(0.05, 0.0), contact_velocity=(0.0, 0.1), c=0.01)
    v_x, v_y, w_z = quasi_static_velocity(inp)
    assert v_x == pytest.approx(0.0, abs=1e-18)
    assert v_y == pytest.approx(0.05 / 13.0, rel=1e-14)
    assert w_z == pytest.approx(25.0 / 13.0, rel=1e-14)


def test_quasi_static_against_linear_system_oracle():
    # independent check: (v_x, v_y, w_z) solve the 3x3 linear system
    #   v_x - dy*w_z = v_cx         (contact point matches pusher, x)
    #   v_y + dx*w_z = v_cy         (contact point matches pusher, y)
    #   dy*v_x - dx*v_y + c^2*w_z = 0   (torque/force ratio of the friction model)
    rng = np.random.default_rng(42)
    for _ in range(200):
        cm = rng.uniform(-1, 1, size=2)
        contact = cm + rng.uniform(-0.2, 0.2, size=2)
        v_c = rng.uniform(-1, 1, size=2)
        c = rng.uniform(1e-3, 1.0)
        inp = QuasiStaticInput(
            contact_point=tuple(contact), contact_velocity=tuple(v_c), cm=tuple(cm), c=c,
        )
        got = np.array(quasi_static_velocity(inp))
        dx, dy = contact - cm
        A = np.array([
            [1.0, 0.0, -dy],
            [0.0, 1.0, dx],
            [dy, -dx, c ** 2],
        ])
        want = np.linalg.solve(A, np.array([v_c[0], v_c[1], 0.0]))
        assert np.max(np.abs(got - want)) < 1e-12


def test_quasi_static_reconstruction_error():
    # the velocity of the slider at the contact point equals the input
    rng = np.random.default_rng(3)
    for _ in range(500):
        cm = rng.uniform(-1, 1, size=2)
        contact = cm + rng.uniform(-0.3, 0.3, size=2)
        v_c = rng.uniform(-2, 2, size=2)
        inp = QuasiStaticInput(
            contact_point=tuple(contact), contact_velocity=tuple(v_c),
            cm=tuple(cm), c=rng.uniform(1e-3, 1.0),
        )
        v_x, v_y, w_z = quasi_static_velocity(inp)
        dx, dy = contact - cm
        assert abs((v_x - w_z * dy) - v_c[0]) < 1e-12
        assert abs((v_y + w_z * dx) - v_c[1]) < 1e-12


def test_quasi_static_velocity_is_a_fixed_point_of_simulate():
    # the dynamic model's limit with q_z = 0, e_t = e_o and e_r = c*e_t: the
    # constant wrench that balances sliding friction at the quasi-static
    # velocity, F = mu*m*g*e_t^2*(v_x, v_y)/sigma and tau = mu*m*g*e_r^2*w_z/sigma,
    # is the push at d along the contact velocity (tau = d x F), and under it
    # simulate keeps that velocity step after step
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(20):
        d_x, d_y, v_cx, v_cy, c, m, mu, e_t = map(float, rng.uniform(
            (-0.05, -0.05, -1.0, -1.0, 0.005, 0.2, 0.1, 0.5), (0.05, 0.05, 1.0, 1.0, 0.05, 2.0, 1.0, 2.0)))
        v_x, v_y, w_z = quasi_static_velocity(QuasiStaticInput((d_x, d_y), (v_cx, v_cy), c=c))
        e_r = c * e_t
        sigma = math.sqrt((e_t * v_x) ** 2 + (e_t * v_y) ** 2 + (e_r * w_z) ** 2)
        load = mu * m * 9.8 / sigma
        f_x, f_y, tau = load * e_t ** 2 * v_x, load * e_t ** 2 * v_y, load * e_r ** 2 * w_z
        assert abs(tau - (d_x * f_y - d_y * f_x)) <= 1e-14 * math.hypot(f_x, f_y)
        scen = Scenario(
            params=SliderParams(m=m, I_z=1e-3 * m, q_z=0.0, g=9.8, patch=DiskPatch(r=0.1)),
            friction=FrictionParams(mu=mu, e_t=e_t, e_o=e_t, e_r=e_r),
            initial=SliderState(q_x=0.0, q_y=0.0, theta_z=0.0, v_x=v_x, v_y=v_y, w_z=w_z, t=0.0),
            schedule=ConstantSchedule(AppliedWrench(lambda_x=f_x, lambda_y=f_y, lambda_ztau=tau)),
            h=0.01,
            duration=0.5,
        )
        records = simulate(scen)
        assert len(records) == 50
        for r in records:
            s = r.state
            change = math.dist((s.v_x, s.v_y, c * s.w_z), (v_x, v_y, c * w_z))
            worst = max(worst, change / math.hypot(v_x, v_y, c * w_z))
    assert worst <= 1e-14


def test_quasi_static_rejects_bad_ratio():
    with pytest.raises(ValidationError):
        QuasiStaticInput(contact_point=(0, 0), contact_velocity=(1, 0), c=0.0)


# --------------------------------------------------------- pure translation

def iso(mu=0.31, e=1.0):
    return FrictionParams(mu=mu, e_t=e, e_o=e, e_r=0.01)


def test_pure_translation_axis_aligned():
    res = pure_translation_step((1.0, 0.0), (0.0, 0.0), 0.049, iso(), 0.5)
    assert res.p_t == pytest.approx(-0.31 * 0.049, abs=1e-18)
    assert res.p_o == 0.0
    assert not res.rest


def test_pure_translation_direction_independent_of_speed():
    for s in (0.1, 1.0, 42.0):
        res = pure_translation_step((0.6 * s, 0.8 * s), (0.0, 0.0), 0.049, iso(), 0.5)
        mag = 0.31 * 0.049
        assert res.p_t == pytest.approx(-0.6 * mag, rel=1e-14)
        assert res.p_o == pytest.approx(-0.8 * mag, rel=1e-14)


def test_pure_translation_speed_decrement_and_rest_at_step_17():
    # losing mu*g*h = 0.030380 m/s per step, 0.5 m/s reaches rest on step 17
    v = (0.5, 0.0)
    steps = 0
    while True:
        res = pure_translation_step(v, (0.0, 0.0), 0.049, iso(), 0.5)
        steps += 1
        if res.rest:
            assert res.v_next == (0.0, 0.0)
            assert res.sigma == 0.0
            break
        drop = v[0] - res.v_next[0]
        assert drop == pytest.approx(0.31 * 9.8 * 0.01, abs=1e-12)
        v = res.v_next
    assert steps == 17


def test_pure_translation_first_step_value():
    res = pure_translation_step((0.5, 0.0), (0.0, 0.0), 0.049, iso(), 0.5)
    assert res.v_next[0] == pytest.approx(0.46962, abs=1e-12)
    assert res.v_next[1] == 0.0


def test_pure_translation_never_speeds_up_unforced():
    rng = np.random.default_rng(8)
    for _ in range(300):
        v = tuple(rng.uniform(-2, 2, size=2))
        m = rng.uniform(0.2, 2.0)
        f = iso(mu=rng.uniform(0.1, 1.0), e=rng.uniform(0.5, 2.0))
        if math.hypot(*v) == 0.0:
            continue
        res = pure_translation_step(v, (0.0, 0.0), 0.098, f, m)
        assert math.hypot(*res.v_next) <= math.hypot(*v) + 1e-15


def test_pure_translation_rest_clamp_returns_stopping_impulse():
    res = pure_translation_step((0.01, -0.005), (0.0, 0.0), 0.049, iso(), 0.5)
    assert res.rest
    assert res.p_t == -0.5 * 0.01
    assert res.p_o == -0.5 * -0.005
    assert res.v_next == (0.0, 0.0)


def test_pure_translation_errors():
    aniso = FrictionParams(mu=0.31, e_t=1.0, e_o=1.5, e_r=0.01)
    with pytest.raises(AnisotropicFrictionError):
        pure_translation_step((1.0, 0.0), (0.0, 0.0), 0.049, aniso, 0.5)
    with pytest.raises(ZeroMotionError):
        pure_translation_step((0.1, 0.0), (-0.05, 0.0), 0.049, iso(), 0.5)


def test_pure_translation_matches_implicit_solver():
    # randomized agreement with the general per-step solve on the
    # w_z = 0, torque-free, isotropic subspace
    rng = np.random.default_rng(19)
    checked = 0
    while checked < 200:
        m = rng.uniform(0.2, 2.0)
        e = rng.uniform(0.5, 2.0)
        f = FrictionParams(mu=rng.uniform(0.1, 1.0), e_t=e, e_o=e, e_r=rng.uniform(0.005, 0.05))
        v = tuple(rng.uniform(-2, 2, size=2))
        p_n = 0.01 * m * 9.8
        applied = AppliedImpulse(
            p_x=float(rng.uniform(-1, 1) * f.mu * p_n),
            p_y=float(rng.uniform(-1, 1) * f.mu * p_n),
        )
        g = (m * v[0] + applied.p_x, m * v[1] + applied.p_y)
        if math.hypot(*g) <= 1.05 * e * f.mu * p_n:
            continue  # keep clearly-sliding cases; rest equality is tested separately
        params = SliderParams(m=m, I_z=1e-3, q_z=0.06, g=9.8, patch=SQUARE)
        state = SliderState(q_x=0, q_y=0, theta_z=0, v_x=v[0], v_y=v[1], w_z=0.0, t=0.0)
        inp = StepInputs(params=params, friction=f, state=state, applied=applied, p_n=p_n)

        res = pure_translation_step(v, (applied.p_x, applied.p_y), p_n, f, m)
        # the one tolerance contract gives component agreement to 1e-10
        imp, info = solve_step_info(inp)
        assert not info.rest
        assert abs(imp.p_t - res.p_t) < 1e-10
        assert abs(imp.p_o - res.p_o) < 1e-10
        assert abs(imp.p_r) < 1e-12          # rotation never starts
        assert abs(imp.sigma - res.sigma) < 1e-10 * max(1.0, res.sigma)
        v1 = (v[0] + (imp.p_t + applied.p_x) / m, v[1] + (imp.p_o + applied.p_y) / m)
        assert abs(v1[0] - res.v_next[0]) < 1e-10
        assert abs(v1[1] - res.v_next[1]) < 1e-10
        checked += 1


# ------------------------------------------------ translation_solve in simulate

TRANSLATE_YAML = """
slider: {m: 0.5, I_z: 5.0e-4, q_z: 0.08}
friction: {mu: 0.31, e_t: 1.0, e_o: 1.0, e_r: 0.01}
patch:
  type: polygon
  vertices: [[-0.025, -0.025], [0.025, -0.025], [0.025, 0.025], [-0.025, 0.025]]
initial: {v_x: 0.5, v_y: 0.0, w_z: 0.0}
run: {h: 0.01, duration: 0.3}
"""

PUSHED_YAML = TRANSLATE_YAML.replace("v_y: 0.0", "v_y: 0.3").replace("duration: 0.3", "duration: 3.0") + """
schedule:
  type: constant
  wrench: {lambda_x: 0.4, lambda_y: -0.2}
"""


def _translate_loop(scen):
    # the translate command's own rollout loop before it ran through
    # simulate, kept as the reference for translation_solve
    n_steps = int(round(scen.duration / scen.h))
    state = scen.initial
    records = []
    for k in range(n_steps):
        inputs = assemble_inputs(state, scen)
        a = inputs.applied
        assert a.p_xtau == 0.0 and a.p_ytau == 0.0 and a.p_ztau == 0.0
        res = pure_translation_step(
            (state.v_x, state.v_y), (a.p_x, a.p_y), inputs.p_n, scen.friction, scen.params.m
        )
        v_x1, v_y1 = res.v_next
        state = SliderState(
            q_x=state.q_x + scen.h * v_x1,
            q_y=state.q_y + scen.h * v_y1,
            theta_z=state.theta_z,
            v_x=v_x1,
            v_y=v_y1,
            w_z=0.0,
            t=state.t + scen.h,
        )
        imp = ContactImpulse(p_t=res.p_t, p_o=res.p_o, p_r=0.0, sigma=res.sigma, p_n=inputs.p_n)
        point = ecp(scen.params, imp, a, (state.q_x, state.q_y, state.theta_z))
        rnorm = 0.0
        if not res.rest:
            rnorm = float(np.max(np.abs(residual((imp.p_t, imp.p_o, imp.p_r, imp.sigma), inputs))))
        records.append(TrajectoryRecord(
            state=state, impulses=imp, ecp=point, applied=a,
            diagnostics=StepDiagnostics(newton_iters=0, residual_norm=rnorm, rest_flag=res.rest),
        ))
        if res.rest:
            break
    return records


def _bits(rec):
    s, p, e, d = rec.state, rec.impulses, rec.ecp, rec.diagnostics
    floats = (s.q_x, s.q_y, s.theta_z, s.v_x, s.v_y, s.w_z, s.t,
              p.p_t, p.p_o, p.p_r, p.sigma, p.p_n, e.a_x, e.a_y, d.residual_norm)
    return [x.hex() for x in floats] + [e.in_hull, e.in_patch, d.newton_iters, d.rest_flag]


@pytest.mark.parametrize("text, n_steps", [(TRANSLATE_YAML, 17), (PUSHED_YAML, 25)],
                         ids=["unforced", "pushed"])
def test_translation_solve_in_simulate_matches_the_closed_form_loop(text, n_steps):
    scen = loads_scenario(text)
    expected = _translate_loop(scen)
    records = simulate(scen, translation_solve)
    assert len(records) == len(expected) == n_steps
    assert records[-1].diagnostics.rest_flag
    assert [_bits(r) for r in records] == [_bits(r) for r in expected]
