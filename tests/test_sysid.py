"""Friction-parameter recovery from observed step transitions."""

import math
from statistics import median

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


@pytest.mark.parametrize("rec, floor", [
    # p_o*v_t overflows: ratio_o is inf where the first identity is 1e290
    (Reconstruction(p_t=1.0, p_o=1e300, p_r=0.01, v_t=1e10, v_o=1.0, v_r=1.0), 1e-8),
    # p_r*v_t overflows the same way, in ratio_r
    (Reconstruction(p_t=1.0, p_o=0.01, p_r=1e300, v_t=1e10, v_o=1.0, v_r=1.0), 1e-8),
    # with no floor, p_t*v_o underflows to 0 under a positive first identity
    (Reconstruction(p_t=1e-170, p_o=1e300, p_r=0.0, v_t=1e-10, v_o=1e-170, v_r=1.0), 0.0),
])
def test_a_ratio_that_leaves_the_doubles_is_degenerate(rec, floor):
    # the ratios were returned as inf, or raised ZeroDivisionError, and an
    # inf per-step estimate made the median -inf and its dispersion nan
    with pytest.raises(DegenerateStepError, match="ratio of the sliding identities overflows"):
        one_step_estimate(rec, 1.0, floor)


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


@pytest.mark.parametrize("t0, t1", [(0.0, math.inf), (-math.inf, 0.01), (-1e308, 1e308)])
def test_observed_step_rejects_a_step_length_that_is_not_finite(t0, t1):
    s0 = SliderState(q_x=0, q_y=0, theta_z=0, v_x=0, v_y=0, w_z=0, t=t0)
    s1 = SliderState(q_x=0, q_y=0, theta_z=0, v_x=0, v_y=0, w_z=0, t=t1)
    with pytest.raises(ValidationError, match=r"^observed step length is not finite: t = "):
        ObservedStep(state_u=s0, state_u1=s1, applied=AppliedImpulse(), p_n=0.049)


def test_observed_step_rejects_an_infinite_normal_impulse():
    # an inf p_n used to pass, and every p/p_n term of the estimate read 0
    s0 = SliderState(q_x=0, q_y=0, theta_z=0, v_x=0, v_y=0, w_z=0, t=0.0)
    s1 = SliderState(q_x=0, q_y=0, theta_z=0, v_x=0, v_y=0, w_z=0, t=0.01)
    with pytest.raises(ValidationError, match=r"^normal impulse is not finite, got inf$"):
        ObservedStep(state_u=s0, state_u1=s1, applied=AppliedImpulse(), p_n=math.inf)
    with pytest.raises(ValidationError, match=r"^normal impulse must be positive$"):
        ObservedStep(state_u=s0, state_u1=s1, applied=AppliedImpulse(), p_n=-math.inf)


def test_custom_floor_controls_skipping(ex1_scenario, ex1_records):
    # an absurdly large floor rejects every step
    p = ex1_scenario.params
    steps = _steps_from_records(ex1_scenario, ex1_records)
    with pytest.raises(AllDegenerateError):
        batch_estimate(steps, p.m, p.I_z, p.q_z, floor=1e6)


@pytest.mark.parametrize("name", ["v_t", "v_o", "v_r", "p_t"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_denominator_that_is_not_finite_is_named(name, value):
    # a nan slip component passes a floor test (abs(nan) < floor is False)
    # and was reported as "first sliding identity overflows a double"
    fields = dict(p_t=0.01, p_o=0.01, p_r=1e-6, v_t=1.0, v_o=1.0, v_r=1.0)
    fields[name] = value
    with pytest.raises(DegenerateStepError, match=rf"^denominator {name} = -?(nan|inf) is not finite$"):
        one_step_estimate(Reconstruction(**fields), 0.049)


def test_empty_batch_says_a_trajectory_needs_two_rows():
    with pytest.raises(AllDegenerateError, match=r"^no observed steps: a trajectory needs at least two rows$"):
        batch_estimate([], 0.5, 5e-4, 0.08)


def _fuzz_component(rng) -> float:
    # mostly log-uniform magnitudes of either sign, and some zeros, values
    # that leave the doubles in a product, and non-finite values
    u = rng.uniform()
    if u < 0.08:
        return 0.0
    if u < 0.1:
        return float(rng.choice([math.nan, math.inf, -math.inf]))
    scale = 10.0 ** rng.uniform(150.0, 300.0) if u < 0.13 else 10.0 ** rng.uniform(-12.0, 3.0)
    return float(rng.choice([-1.0, 1.0])) * scale


def _fuzz_steps(rng, n: int) -> list[ObservedStep]:
    def state(t):
        return SliderState(*(_fuzz_component(rng) for _ in range(6)), t=t)

    def applied():
        return AppliedImpulse(*(_fuzz_component(rng) for _ in range(6)))

    return [ObservedStep(state(0.0), state(0.01), applied(), 10.0 ** rng.uniform(-6.0, 3.0)) for _ in range(n)]


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _check_batch_is_the_public_loop(steps, m, I_z, q_z, floor=1e-8):
    # batch_estimate against a loop of reconstruct and one_step_estimate,
    # aggregated as its docstring says, bit for bit
    per_step = []
    skipped = 0
    for step in steps:
        try:
            per_step.append(one_step_estimate(reconstruct(step, m, I_z, q_z), step.p_n, floor))
        except DegenerateStepError:
            skipped += 1
    est = batch_estimate(steps, m, I_z, q_z, floor)
    assert est.n_skipped == skipped
    assert [_hex(e) for e in est.per_step] == [_hex(e) for e in per_step]
    cols = list(zip(*per_step))
    meds = [median(c) for c in cols]
    mads = [median([abs(x - m_) for x in c]) for c, m_ in zip(cols, meds)]
    assert _hex((est.et2mu, est.ratio_o, est.ratio_r)) == _hex(meds)
    assert _hex(est.dispersion) == _hex(mads)
    return est


def test_batch_estimate_is_the_public_loop_on_the_bundled_examples(
        ex1_scenario, ex1_records, ex2_scenario, ex2_records, ex3_scenario, ex3_records):
    for scen, records in ((ex1_scenario, ex1_records), (ex2_scenario, ex2_records), (ex3_scenario, ex3_records)):
        p = scen.params
        _check_batch_is_the_public_loop(_steps_from_records(scen, records), p.m, p.I_z, p.q_z)


def test_batch_estimate_skips_the_transition_into_an_exact_rest(ex2_scenario, ex2_records, tmp_path):
    # example2 ends at an exact rest, whose zero end velocities make v_t = 0:
    # of its logged transitions, that last one alone is skipped
    from patchslide import observed_steps, read_trajectory, write_trajectory
    from patchslide.sysid import DEGENERACY_FLOOR

    assert len(ex2_records) == 56 < round(ex2_scenario.duration / ex2_scenario.h) == 65
    assert ex2_records[-1].impulses.sigma == 0.0 and ex2_records[-1].diagnostics.rest_flag
    path = tmp_path / "example2.csv"
    write_trajectory(ex2_records, path)
    steps = observed_steps(read_trajectory(path))
    p = ex2_scenario.params
    assert len(steps) == 55
    assert [_is_degenerate(reconstruct(s, p.m, p.I_z, p.q_z), s.p_n, DEGENERACY_FLOOR) for s in steps] == [False] * 54 + [True]
    with pytest.raises(DegenerateStepError, match="v_t = 0 "):
        one_step_estimate(reconstruct(steps[-1], p.m, p.I_z, p.q_z), steps[-1].p_n)
    est = batch_estimate(steps, p.m, p.I_z, p.q_z)
    assert est.n_skipped == 1 and len(est.per_step) == 54
    f = ex2_scenario.friction
    assert est.et2mu == pytest.approx(f.e_t * f.mu, rel=1e-9) == pytest.approx(0.31)


def _is_degenerate(rec, p_n, floor) -> bool:
    try:
        one_step_estimate(rec, p_n, floor)
    except DegenerateStepError:
        return True
    return False


def test_batch_estimate_is_the_public_loop_on_a_fuzz_corpus():
    rng = np.random.default_rng(2718)
    skipped = used = 0
    for _ in range(200):
        steps = _fuzz_steps(rng, int(rng.integers(1, 12)))
        m, I_z, q_z = 10.0 ** rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-6.0, 0.0), rng.uniform(0.0, 0.1)
        floor = float(rng.choice([0.0, 1e-8, 1e-3]))
        try:
            est = _check_batch_is_the_public_loop(steps, m, I_z, q_z, floor)
        except AllDegenerateError:
            skipped += len(steps)
            assert all(_is_degenerate(reconstruct(s, m, I_z, q_z), s.p_n, floor) for s in steps)
            continue
        skipped += est.n_skipped
        used += len(est.per_step)
    # the corpus reaches both the estimates and the degenerate steps
    assert used > 100 and skipped > 100

