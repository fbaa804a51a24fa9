"""Friction-parameter recovery from observed step transitions."""

import math

import numpy as np
import pytest

from patchslide import (
    AllDegenerateError,
    AppliedImpulse,
    DegenerateStepError,
    ObservedStep,
    Reconstruction,
    SliderState,
    ValidationError,
    batch_estimate,
    one_step_estimate,
    reconstruct,
)


def _steps_from_records(scen, records) -> list[ObservedStep]:
    pairs = zip(records, records[1:])
    return [
        ObservedStep(state_u=a.state, state_u1=b.state, applied=b.applied, p_n=b.impulses.p_n)
        for a, b in pairs
    ]


def test_reconstruct_round_trips_logged_impulses(ex1_scenario, ex1_records):
    p = ex1_scenario.params
    for prev, cur in zip(ex1_records, ex1_records[1:]):
        step = ObservedStep(state_u=prev.state, state_u1=cur.state,
                            applied=cur.applied, p_n=cur.impulses.p_n)
        rec = reconstruct(step, p.m, p.I_z, p.q_z)
        assert abs(rec.p_t - cur.impulses.p_t) < 1e-12
        assert abs(rec.p_o - cur.impulses.p_o) < 1e-12
        assert abs(rec.p_r - cur.impulses.p_r) < 1e-14


def test_reconstruct_stationary_pair_is_all_zero():
    s0 = SliderState(q_x=1.0, q_y=2.0, theta_z=0.3, v_x=0.0, v_y=0.0, w_z=0.0, t=0.0)
    s1 = SliderState(q_x=1.0, q_y=2.0, theta_z=0.3, v_x=0.0, v_y=0.0, w_z=0.0, t=0.01)
    step = ObservedStep(state_u=s0, state_u1=s1, applied=AppliedImpulse(), p_n=0.049)
    rec = reconstruct(step, 0.5, 5e-4, 0.08)
    assert (rec.p_t, rec.p_o, rec.p_r, rec.v_t, rec.v_o, rec.v_r) == (0, 0, 0, 0, 0, 0)


def test_pure_translation_step_is_degenerate():
    # w_z = 0 throughout forces p_r = 0 and v_r = 0
    s0 = SliderState(q_x=0, q_y=0, theta_z=0, v_x=0.5, v_y=0.0, w_z=0.0, t=0.0)
    s1 = SliderState(q_x=0.0046962, q_y=0, theta_z=0, v_x=0.46962, v_y=0.0, w_z=0.0, t=0.01)
    step = ObservedStep(state_u=s0, state_u1=s1, applied=AppliedImpulse(), p_n=0.049)
    rec = reconstruct(step, 0.5, 5e-4, 0.08)
    assert rec.p_r == 0.0
    assert rec.v_r == 0.0
    with pytest.raises(DegenerateStepError):
        one_step_estimate(rec, 0.049)


def test_nonpositive_first_identity_is_degenerate():
    # every denominator clears the floor, but the first sliding identity
    # has no square root: no maximum-dissipation impulse gives these signs
    rec = Reconstruction(p_t=0.01, p_o=-1.0, p_r=0.01, v_t=1.0, v_o=1.0, v_r=1.0)
    with pytest.raises(DegenerateStepError, match="first sliding identity nonpositive"):
        one_step_estimate(rec, 0.049)


def test_one_step_estimates_recover_parameters(ex1_scenario, ex1_records):
    p = ex1_scenario.params
    f = ex1_scenario.friction
    truth = (f.mu * f.e_t ** 2, (f.e_o / f.e_t) ** 2, (f.e_r / f.e_t) ** 2)
    for step in _steps_from_records(ex1_scenario, ex1_records):
        rec = reconstruct(step, p.m, p.I_z, p.q_z)
        est = one_step_estimate(rec, step.p_n)
        for got, want in zip(est, truth):
            assert abs(got - want) <= 1e-6 * abs(want)


def test_batch_estimate_on_spin_down_run(ex1_scenario, ex1_records):
    p = ex1_scenario.params
    steps = _steps_from_records(ex1_scenario, ex1_records)
    est = batch_estimate(steps, p.m, p.I_z, p.q_z)
    assert abs(est.et2mu - 0.31) <= 1e-6 * 0.31
    assert abs(est.ratio_o - 1.0) <= 1e-6
    assert abs(est.ratio_r - 1e-4) <= 1e-6 * 1e-4
    assert est.n_skipped == 0
    assert len(est.per_step) == len(steps)
    assert max(est.dispersion) < 1e-8


def test_batch_estimate_under_periodic_forcing(ex3_scenario, ex3_records):
    p = ex3_scenario.params
    steps = _steps_from_records(ex3_scenario, ex3_records)
    est = batch_estimate(steps, p.m, p.I_z, p.q_z)
    assert abs(est.et2mu - 0.31) <= 1e-6 * 0.31
    assert abs(est.ratio_o - 1.0) <= 1e-6
    assert abs(est.ratio_r - 1e-4) <= 1e-6 * 1e-4


def test_single_step_batch_has_zero_dispersion(ex1_scenario, ex1_records):
    p = ex1_scenario.params
    steps = _steps_from_records(ex1_scenario, ex1_records)[:1]
    est = batch_estimate(steps, p.m, p.I_z, p.q_z)
    assert est.per_step[0] == (est.et2mu, est.ratio_o, est.ratio_r)
    assert est.dispersion == (0.0, 0.0, 0.0)
    assert est.n_skipped == 0


def test_batch_all_degenerate_raises():
    s0 = SliderState(q_x=0, q_y=0, theta_z=0, v_x=0.5, v_y=0.0, w_z=0.0, t=0.0)
    s1 = SliderState(q_x=0.0047, q_y=0, theta_z=0, v_x=0.46962, v_y=0.0, w_z=0.0, t=0.01)
    steps = [ObservedStep(state_u=s0, state_u1=s1, applied=AppliedImpulse(), p_n=0.049)] * 3
    with pytest.raises(AllDegenerateError):
        batch_estimate(steps, 0.5, 5e-4, 0.08)
    with pytest.raises(AllDegenerateError):
        batch_estimate([], 0.5, 5e-4, 0.08)


def test_estimates_invariant_under_rigid_rotation(ex1_scenario, ex1_records):
    # rotating all observed states and applied impulses about z leaves the
    # isotropic-case estimates unchanged
    p = ex1_scenario.params
    phi = 0.7
    c, s = math.cos(phi), math.sin(phi)

    def rot_state(st: SliderState) -> SliderState:
        return SliderState(
            q_x=c * st.q_x - s * st.q_y, q_y=s * st.q_x + c * st.q_y,
            theta_z=st.theta_z,
            v_x=c * st.v_x - s * st.v_y, v_y=s * st.v_x + c * st.v_y,
            w_z=st.w_z, t=st.t,
        )

    def rot_applied(a: AppliedImpulse) -> AppliedImpulse:
        return AppliedImpulse(
            p_x=c * a.p_x - s * a.p_y, p_y=s * a.p_x + c * a.p_y, p_z=a.p_z,
            p_xtau=c * a.p_xtau - s * a.p_ytau, p_ytau=s * a.p_xtau + c * a.p_ytau,
            p_ztau=a.p_ztau,
        )

    base_steps = _steps_from_records(ex1_scenario, ex1_records)
    rot_steps = [
        ObservedStep(state_u=rot_state(st.state_u), state_u1=rot_state(st.state_u1),
                     applied=rot_applied(st.applied), p_n=st.p_n)
        for st in base_steps
    ]
    base = batch_estimate(base_steps, p.m, p.I_z, p.q_z)
    rot = batch_estimate(rot_steps, p.m, p.I_z, p.q_z)
    assert abs(base.et2mu - rot.et2mu) < 1e-9
    assert abs(base.ratio_o - rot.ratio_o) < 1e-9
    assert abs(base.ratio_r - rot.ratio_r) < 1e-12


def test_observed_step_validation():
    s0 = SliderState(q_x=0, q_y=0, theta_z=0, v_x=0, v_y=0, w_z=0, t=0.0)
    s1 = SliderState(q_x=0, q_y=0, theta_z=0, v_x=0, v_y=0, w_z=0, t=0.01)
    with pytest.raises(ValidationError):
        ObservedStep(state_u=s0, state_u1=s0, applied=AppliedImpulse(), p_n=0.049)  # no time advance
    with pytest.raises(ValidationError):
        ObservedStep(state_u=s0, state_u1=s1, applied=AppliedImpulse(), p_n=0.0)


def test_custom_floor_controls_skipping(ex1_scenario, ex1_records):
    # an absurdly large floor rejects every step
    p = ex1_scenario.params
    steps = _steps_from_records(ex1_scenario, ex1_records)
    with pytest.raises(AllDegenerateError):
        batch_estimate(steps, p.m, p.I_z, p.q_z, floor=1e6)
