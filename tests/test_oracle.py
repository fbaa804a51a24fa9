"""Reference solver (the roots of each step's degree-10 polynomial,
polished by four-equation Newton) and direct optimality checks, exercised
against the fast slip-speed solve."""

import dataclasses
import math

import numpy as np
import pytest

from patchslide import (
    AppliedImpulse,
    FrictionParams,
    PolygonPatch,
    SliderParams,
    SliderState,
    StepInputs,
    oracle_solve_step,
    pure_translation_step,
    solve_step,
    verify_kkt,
)
import patchslide.oracle as oracle_module
from patchslide.errors import OracleFailure
from patchslide.oracle import _roots

from conftest import make_sliding_inputs
from test_solver import (
    STEP1_P_O, STEP1_P_R, STEP1_P_T, STEP1_SIGMA, THREE_ROOTS_FLAT, THREE_ROOTS_TALL, _gap_roots,
    step1_inputs,
)

SQUARE = PolygonPatch(((-0.025, -0.025), (0.025, -0.025), (0.025, 0.025), (-0.025, 0.025)))


def test_oracle_reproduces_frozen_step1():
    ref = oracle_solve_step(step1_inputs())
    assert ref.p_t == pytest.approx(STEP1_P_T, abs=1e-9)
    assert ref.p_o == pytest.approx(STEP1_P_O, abs=1e-9)
    assert ref.p_r == pytest.approx(STEP1_P_R, abs=1e-11)
    assert ref.sigma == pytest.approx(STEP1_SIGMA, abs=1e-9)


def test_oracle_is_deterministic():
    a = oracle_solve_step(step1_inputs())
    b = oracle_solve_step(step1_inputs())
    assert (a.p_t, a.p_o, a.p_r, a.sigma) == (b.p_t, b.p_o, b.p_r, b.sigma)


def test_oracle_matches_pure_translation_closed_form():
    f = FrictionParams(mu=0.31, e_t=1.0, e_o=1.0, e_r=0.01)
    params = SliderParams(m=0.5, I_z=5e-4, q_z=0.08, g=9.8, patch=SQUARE)
    state = SliderState(q_x=0, q_y=0, theta_z=0, v_x=0.5, v_y=-0.3, w_z=0.0, t=0.0)
    inp = StepInputs(params=params, friction=f, state=state,
                     applied=AppliedImpulse(), p_n=0.049)
    want = pure_translation_step((0.5, -0.3), (0.0, 0.0), 0.049, f, 0.5)
    got = oracle_solve_step(inp)
    assert abs(got.p_t - want.p_t) < 1e-7
    assert abs(got.p_o - want.p_o) < 1e-7
    assert abs(got.p_r) < 1e-9
    assert abs(got.sigma - want.sigma) < 1e-7


def test_oracle_rest_matches_solver_convention():
    f = FrictionParams(mu=0.31, e_t=1.0, e_o=1.0, e_r=0.01)
    params = SliderParams(m=0.5, I_z=5e-4, q_z=0.08, g=9.8, patch=SQUARE)
    state = SliderState(q_x=0, q_y=0, theta_z=0, v_x=0.02, v_y=-0.01, w_z=0.0, t=0.0)
    inp = StepInputs(params=params, friction=f, state=state,
                     applied=AppliedImpulse(), p_n=0.049)
    ref = oracle_solve_step(inp)
    fast = solve_step(inp)
    assert ref.sigma == 0.0
    assert (ref.p_t, ref.p_o, ref.p_r) == (fast.p_t, fast.p_o, fast.p_r) == (-0.01, 0.005, 0.0)


def test_oracle_agrees_with_solver_on_randomized_inputs():
    for inp in make_sliding_inputs(seed=31, n=100):
        fast = solve_step(inp)
        ref = oracle_solve_step(inp)
        assert abs(fast.p_t - ref.p_t) <= 1e-6
        assert abs(fast.p_o - ref.p_o) <= 1e-6
        assert abs(fast.p_r - ref.p_r) <= 1e-6
        assert abs(fast.sigma - ref.sigma) <= 1e-6


def test_oracle_grid_search_rules_out_negative_slip_speeds():
    # a cold sliding input on which the grid search, when it clamped each
    # candidate's slip speed to 0, zoomed into a spurious sigma = 0
    # candidate, and the oracle failed with a residual of 1.452e-05
    inp = StepInputs(
        params=SliderParams(m=1.8672, I_z=0.0069759, q_z=0.044791, g=9.8, patch=SQUARE),
        friction=FrictionParams(mu=0.26066, e_t=1.10398, e_o=1.26223, e_r=0.0238259),
        state=SliderState(q_x=0.0, q_y=0.0, theta_z=0.0, v_x=-0.019895, v_y=-0.045668, w_z=0.11286, t=0.0),
        applied=AppliedImpulse(0.073342, 0.079246, 0.0, -0.013214, 0.0077172, 0.0025272),
        p_n=0.18299,
    )
    fast = solve_step(inp)
    ref = oracle_solve_step(inp)
    assert fast.sigma == pytest.approx(0.0079311, abs=1e-7)
    for got, want in zip((ref.p_t, ref.p_o, ref.p_r, ref.sigma), (fast.p_t, fast.p_o, fast.p_r, fast.sigma)):
        assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("inp, smallest", [(THREE_ROOTS_FLAT, 2.609e-5), (THREE_ROOTS_TALL, 0.01527)],
                         ids=["flat", "tall"])
def test_oracle_lists_every_root_and_returns_the_smallest(inp, smallest):
    # the polynomial's positive roots, polished, are the gap's sign changes,
    # and the oracle names the least slip speed whatever a warm start picks
    scale = max(1.0, (inp.friction.mu * inp.p_n) ** 2)
    roots = [z[3] for z, rn in _roots(inp) if rn <= 1e-12 * scale]
    assert roots == pytest.approx(_gap_roots(inp), rel=1e-9)
    assert len(roots) == 3
    ref = oracle_solve_step(inp)
    assert ref.sigma == roots[0] == pytest.approx(smallest, rel=1e-3)


def test_oracle_falls_back_to_the_floor_then_fails(monkeypatch):
    # a contract no polished point meets: the point of least residual is
    # returned when it is within the failure floor, and OracleFailure
    # raised when it is not
    inp = step1_inputs()
    monkeypatch.setattr(oracle_module, "_TOL", 0.0)
    monkeypatch.setattr(oracle_module, "_FLOOR_ULPS", 0.0)
    monkeypatch.setattr(oracle_module, "_NEWTON_ITERS", 0)
    ref = oracle_solve_step(inp)
    assert ref.sigma == pytest.approx(STEP1_SIGMA, abs=1e-9)
    monkeypatch.setattr(oracle_module, "_FLOOR_REL", 0.0)
    with pytest.raises(OracleFailure, match="residual floor not reached"):
        oracle_solve_step(inp)


def test_oracle_holds_roots_to_the_solvers_contract_at_small_loads(monkeypatch):
    # at (mu*p_n)^2 = 1e-6 a point of residual 1e-13 meets an absolute 1e-12
    # but not the solver's 1e-12 relative to (mu*p_n)^2, nor its roundoff
    # floor: the oracle passes over it to the true root above it
    inp = dataclasses.replace(step1_inputs(), p_n=1e-3 / step1_inputs().friction.mu)
    assert (inp.friction.mu * inp.p_n) ** 2 == pytest.approx(1e-6, rel=1e-12)
    true_roots = _roots(inp)
    (p_t, p_o, p_r, sigma), _ = true_roots[0]
    impostor = ((p_t, p_o, p_r, 0.5 * sigma), 1e-13)
    monkeypatch.setattr(oracle_module, "_roots", lambda inp: [impostor] + true_roots)
    ref = oracle_solve_step(inp)
    assert ref.sigma == sigma == pytest.approx(solve_step(inp).sigma, rel=1e-12)


# ----------------------------------------------------------------- verify_kkt

def test_kkt_gaps_small_on_converged_solution():
    inp = step1_inputs()
    sol = solve_step(inp)
    rep = verify_kkt(sol, inp)
    assert rep.residual_norm < 1e-8
    assert rep.ellipsoid_gap < 1e-8
    assert rep.sigma_identity_gap < 1e-8
    assert rep.dissipation_optimality


def test_kkt_flags_inflated_impulse():
    inp = step1_inputs()
    sol = solve_step(inp)
    bad = dataclasses.replace(sol, p_t=1.01 * sol.p_t)
    rep = verify_kkt(bad, inp)
    assert rep.ellipsoid_gap > 1e-9


def test_kkt_flags_sign_flip():
    inp = step1_inputs()
    sol = solve_step(inp)
    bad = dataclasses.replace(sol, p_t=-sol.p_t)
    rep = verify_kkt(bad, inp)
    assert not rep.dissipation_optimality


def _turned(sol, inp, angle):
    # sol's impulse on the ellipsoid, turned by angle in the ellipsoid's
    # unit coordinates (p_i / e_i), about an axis normal to it and to z
    f = inp.friction
    e = np.array([f.e_t, f.e_o, f.e_r])
    x = np.array([sol.p_t, sol.p_o, sol.p_r]) / e
    axis = np.cross(x, [0.0, 0.0, 1.0])
    axis /= np.linalg.norm(axis)
    p = (x * math.cos(angle) + np.cross(axis, x) * math.sin(angle)) * e
    return dataclasses.replace(sol, p_t=float(p[0]), p_o=float(p[1]), p_r=float(p[2]))


def test_kkt_flags_an_impulse_turned_off_the_max_dissipation_direction():
    # 1e-3 rad off the optimum the impulse dissipates 5.0e-7 less than
    # the ellipsoid's support function allows; a check against sampled
    # points of the ellipsoid passed it, the exact bound does not
    inp = step1_inputs()
    sol = solve_step(inp)
    bad = _turned(sol, inp, 1e-3)
    rep = verify_kkt(bad, inp)
    assert rep.ellipsoid_gap <= 1e-18
    assert not rep.dissipation_optimality
    # a tenth of that turn still fails; no turn passes
    assert not verify_kkt(_turned(sol, inp, 1e-4), inp).dissipation_optimality
    assert verify_kkt(_turned(sol, inp, 0.0), inp).dissipation_optimality


def test_kkt_holds_rest_candidates_to_the_same_bound():
    # a rest candidate's slip is zero up to roundoff, so the stopping
    # impulse passes; half of it leaves the slider sliding against an
    # impulse that dissipates too little, and fails
    inp = StepInputs(
        params=SliderParams(m=0.5, I_z=5e-4, q_z=0.08, g=9.8, patch=SQUARE),
        friction=FrictionParams(mu=0.31, e_t=1.0, e_o=1.0, e_r=0.01),
        state=SliderState(q_x=0, q_y=0, theta_z=0, v_x=0.02, v_y=-0.01, w_z=0.1, t=0.0),
        applied=AppliedImpulse(p_x=0.001, p_ztau=1e-5), p_n=0.049)
    rest = oracle_solve_step(inp)
    assert rest.sigma == 0.0
    assert verify_kkt(rest, inp).dissipation_optimality
    half = dataclasses.replace(rest, p_t=0.5 * rest.p_t, p_o=0.5 * rest.p_o, p_r=0.5 * rest.p_r)
    assert not verify_kkt(half, inp).dissipation_optimality
