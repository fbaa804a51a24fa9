"""Time stepping: velocity/configuration updates, ECP placement and
containment, rest termination, and trajectory-level invariants."""

import dataclasses
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from patchslide import (
    AnnulusPatch,
    AppliedImpulse,
    AppliedWrench,
    BodyPusherSchedule,
    ConstantSchedule,
    ContactImpulse,
    ContactLossError,
    DiskPatch,
    FrictionParams,
    PatchSlideError,
    PolygonPatch,
    RunOptions,
    Scenario,
    SliderParams,
    SliderState,
    SlipVelocity,
    TableSchedule,
    ToppleRiskError,
    ValidationError,
    assemble_inputs,
    ecp,
    max_dissipation_impulse,
    simulate,
    slip_velocity,
    step,
    validate_patch,
    wrench_at,
)
from patchslide.core import impulse_over, pressing_load
from patchslide.geometry import convex_hull, point_in_convex_polygon
from patchslide.scenario import MIN_E_R

SQUARE = PolygonPatch(((-0.025, -0.025), (0.025, -0.025), (0.025, 0.025), (-0.025, 0.025)))
ISO = FrictionParams(mu=0.31, e_t=1.0, e_o=1.0, e_r=0.01)
# non-convex: the hull adds the triangle (0.02, 0.01), (0.01, 0.02), (0.01, 0.01)
L_SHAPE = PolygonPatch(((0.0, 0.0), (0.02, 0.0), (0.02, 0.01), (0.01, 0.01), (0.01, 0.02), (0.0, 0.02)))
# self-intersecting, nonzero shoelace area: the edges (0, 0)-(0.03, 0.02) and
# (0.03, 0)-(0, 0.01) cross at (0.01, 0.02/3), leaving two unequal lobes
BOWTIE = PolygonPatch(((0.0, 0.0), (0.03, 0.02), (0.03, 0.0), (0.0, 0.01)))


def _square(half: float) -> PolygonPatch:
    return PolygonPatch(((-half, -half), (half, -half), (half, half), (-half, half)))


def make_scenario(
    v=(0.7, 0.9), w_z=10.0, m=0.5, I_z=5e-4, q_z=0.08, patch=SQUARE,
    friction=ISO, wrench=None, schedule=None, h=0.01, duration=0.45, options=None,
):
    params = SliderParams(m=m, I_z=I_z, q_z=q_z, g=9.8, patch=patch)
    initial = SliderState(q_x=0.0, q_y=0.0, theta_z=0.0, v_x=v[0], v_y=v[1], w_z=w_z, t=0.0)
    if schedule is None:
        schedule = ConstantSchedule(wrench or AppliedWrench.zero())
    return Scenario(params=params, friction=friction, initial=initial, schedule=schedule,
                    h=h, duration=duration, options=options or RunOptions())


# ----------------------------------------------------------------------- step

def test_step_velocity_update_matches_impulse_arithmetic():
    scen = make_scenario(wrench=AppliedWrench(lambda_x=0.4, lambda_ztau=0.002))
    rec = step(scen.initial, scen)
    imp, a = rec.impulses, rec.applied
    assert rec.state.v_x == scen.initial.v_x + (imp.p_t + a.p_x) / 0.5
    assert rec.state.v_y == scen.initial.v_y + (imp.p_o + a.p_y) / 0.5
    assert rec.state.w_z == scen.initial.w_z + (imp.p_r + a.p_ztau) / 5e-4
    # configuration advances with end-of-step velocities
    assert rec.state.q_x == scen.initial.q_x + 0.01 * rec.state.v_x
    assert rec.state.theta_z == scen.initial.theta_z + 0.01 * rec.state.w_z
    assert rec.state.t == pytest.approx(0.01)


def test_step_from_standstill_is_rest_and_keeps_pose():
    scen = make_scenario(v=(0.0, 0.0), w_z=0.0)
    rec = step(scen.initial, scen)
    assert rec.diagnostics.rest_flag
    assert rec.impulses.sigma == 0.0
    assert (rec.state.v_x, rec.state.v_y, rec.state.w_z) == (0.0, 0.0, 0.0)
    assert (rec.state.q_x, rec.state.q_y, rec.state.theta_z) == (0.0, 0.0, 0.0)
    assert rec.state.t == pytest.approx(0.01)


def test_step_pure_translation_decrement():
    scen = make_scenario(v=(0.5, 0.0), w_z=0.0)
    rec = step(scen.initial, scen)
    assert rec.state.v_x == pytest.approx(0.46962, abs=1e-12)
    assert rec.state.v_y == pytest.approx(0.0, abs=1e-15)
    assert rec.state.w_z == 0.0
    assert rec.impulses.p_r == 0.0


def test_step_impulse_is_max_dissipation_at_end_velocities():
    # the returned impulse, ECP offset, and end-of-step state close the loop
    scen = make_scenario()
    rec = step(scen.initial, scen)
    d = (rec.ecp.a_x - rec.state.q_x, rec.ecp.a_y - rec.state.q_y)
    v = slip_velocity(rec.state, d)
    ref = max_dissipation_impulse(v, rec.impulses.p_n, scen.friction)
    assert abs(rec.impulses.p_t - ref.p_t) < 1e-8
    assert abs(rec.impulses.p_o - ref.p_o) < 1e-8
    assert abs(rec.impulses.p_r - ref.p_r) < 1e-8
    assert abs(rec.impulses.sigma - ref.sigma) < 1e-8


# ------------------------------------------------------------------------ ecp

def test_ecp_under_cm_when_cm_on_the_plane():
    params = SliderParams(m=0.5, I_z=5e-4, q_z=0.0, g=9.8, patch=SQUARE)
    imp = ContactImpulse(p_t=-0.01, p_o=0.005, p_r=0.0, sigma=1.0, p_n=0.049)
    point = ecp(params, imp, AppliedImpulse(), (0.3, -0.2, 0.1))
    assert (point.a_x, point.a_y) == (0.3, -0.2)
    assert point.in_hull and point.in_patch


def test_ecp_shifts_forward_under_braking():
    # q_z > 0 and p_t < 0 push the ECP to +x of the CM
    scen = make_scenario(v=(0.5, 0.0), w_z=0.0)
    rec = step(scen.initial, scen)
    assert rec.impulses.p_t < 0.0
    assert rec.ecp.a_x > rec.state.q_x
    assert rec.ecp.a_y == rec.state.q_y


def test_ecp_reflects_applied_torque_components():
    params = SliderParams(m=0.5, I_z=5e-4, q_z=0.08, g=9.8, patch=SQUARE)
    imp = ContactImpulse(p_t=0.0, p_o=0.0, p_r=0.0, sigma=0.0, p_n=0.049)
    applied = AppliedImpulse(p_xtau=0.001, p_ytau=-0.0005)
    point = ecp(params, imp, applied, (0.0, 0.0, 0.0))
    assert point.a_x == pytest.approx(-0.0005 / 0.049, rel=1e-15)
    assert point.a_y == pytest.approx(-0.001 / 0.049, rel=1e-15)


def test_slip_velocity_forms():
    s = SliderState(q_x=0, q_y=0, theta_z=0, v_x=0.3, v_y=-0.2, w_z=0.0, t=0)
    assert slip_velocity(s, (0.1, 0.1)) == SlipVelocity(0.3, -0.2, 0.0)
    s2 = dataclasses.replace(s, v_x=0.0, v_y=0.0, w_z=1.0)
    assert slip_velocity(s2, (0.1, -0.2)) == SlipVelocity(0.2, 0.1, 1.0)
    s3 = dataclasses.replace(s, w_z=7.0)
    assert slip_velocity(s3, (0.0, 0.0)) == SlipVelocity(0.3, -0.2, 7.0)


# -------------------------------------------------------------- validate_patch

def test_validate_patch_square_and_disk():
    assert validate_patch((0.0, 0.0), SQUARE, (0.0, 0.0, 0.0)) == (True, True)
    disk = DiskPatch(r=0.1)
    assert validate_patch((0.2, 0.0), disk, (0.0, 0.0, 0.0)) == (False, False)
    assert validate_patch((0.05, 0.0), disk, (0.0, 0.0, 0.0)) == (True, True)


def test_validate_patch_annulus_hull_vs_material():
    ring = AnnulusPatch(r_in=0.05, r_out=0.1)
    assert validate_patch((0.02, 0.0), ring, (0.0, 0.0, 0.0)) == (True, False)
    assert validate_patch((0.07, 0.0), ring, (0.0, 0.0, 0.0)) == (True, True)
    assert validate_patch((0.15, 0.0), ring, (0.0, 0.0, 0.0)) == (False, False)


def test_validate_patch_respects_pose():
    # a 2:1 rectangle rotated 90 degrees: the world point (0, 0.04) is
    # inside only after rotation
    rect = PolygonPatch(((-0.05, -0.01), (0.05, -0.01), (0.05, 0.01), (-0.05, 0.01)))
    assert validate_patch((0.0, 0.04), rect, (0.0, 0.0, 0.0)) == (False, False)
    assert validate_patch((0.0, 0.04), rect, (0.0, 0.0, math.pi / 2)) == (True, True)
    # translation moves the patch with the body
    assert validate_patch((1.0, 2.0), rect, (1.0, 2.0, 0.0)) == (True, True)


def test_validate_patch_polygon_notch_is_in_hull_not_in_patch():
    origin = (0.0, 0.0, 0.0)
    assert validate_patch((0.013, 0.013), L_SHAPE, origin) == (True, False)
    assert validate_patch((0.005, 0.015), L_SHAPE, origin) == (True, True)
    assert validate_patch((0.025, 0.005), L_SHAPE, origin) == (False, False)


def test_validate_patch_non_convex_polygon_never_in_patch_outside_the_hull():
    # with 4 m edges the ray cast's boundary slack accepts this point just
    # below the bottom edge, which the hull test rejects
    big_l = PolygonPatch(((0.0, 0.0), (4.0, 0.0), (4.0, 2.0), (2.0, 2.0), (2.0, 4.0), (0.0, 4.0)))
    assert validate_patch((1.0, -5e-13), big_l, (0.0, 0.0, 0.0)) == (False, False)


def test_validate_patch_convex_polygon_in_either_orientation_skips_the_ray_cast(monkeypatch):
    import patchslide.stepper as stepper_module

    def no_ray_cast(*args):
        raise AssertionError("ray cast on a convex patch")

    monkeypatch.setattr(stepper_module, "point_in_polygon", no_ray_cast)
    points = [(0.0, 0.0), (0.025, 0.01), (0.025, 0.025), (0.03, 0.0), (0.0, -0.026)]
    expected = [(True, True), (True, True), (True, True), (False, False), (False, False)]
    clockwise = PolygonPatch(SQUARE.vertices[::-1])
    shifted = PolygonPatch(SQUARE.vertices[2:] + SQUARE.vertices[:2])
    for patch in (SQUARE, clockwise, shifted):
        assert [validate_patch(p, patch, (0.0, 0.0, 0.0)) for p in points] == expected
    # the patch flag takes the hull test's boundary slack, so it never
    # accepts a point the hull rejects (the ray cast's slack grows with
    # edge length, and 4 m edges let it accept this one)
    assert validate_patch((0.0, -2.0 - 5e-13), _square(2.0), (0.0, 0.0, 0.0)) == (False, False)


def test_validate_patch_self_intersecting_polygon_keeps_the_ray_cast():
    # its four vertices are the hull's, in the wrong cyclic order
    origin = (0.0, 0.0, 0.0)
    assert validate_patch((0.005, 0.001), BOWTIE, origin) == (True, False)
    assert validate_patch((0.002, 0.005), BOWTIE, origin) == (True, True)
    assert validate_patch((0.025, 0.01), BOWTIE, origin) == (True, True)
    assert validate_patch((0.01, 0.015), BOWTIE, origin) == (False, False)


def test_validate_patch_degenerate_hull_keeps_the_general_test():
    # nonzero shoelace area from roundoff, yet the hull drops the middle
    # vertex as collinear: two hull points and no edges to test against
    thin = PolygonPatch(((0.11288584381185873, -0.15283142922987214),
                         (0.5617714068014281, -0.3342143955494309),
                         (0.5893117124160843, -0.3453427158555344)))
    hull = convex_hull(list(thin.vertices))
    assert len(hull) == 2
    origin = (0.0, 0.0, 0.0)
    (ax, ay), (bx, by) = hull
    mid = (0.5 * (ax + bx), 0.5 * (ay + by))
    for point in (mid, (mid[0], mid[1] + 1e-3), (2.0 * bx - ax, 2.0 * by - ay)):
        in_hull, _ = validate_patch(point, thin, origin)
        assert in_hull is point_in_convex_polygon(point[0], point[1], hull)
    assert validate_patch(mid, thin, origin)[0]


# ------------------------------------------------------------------- simulate

def test_simulate_zero_duration_is_empty():
    assert simulate(make_scenario(duration=0.0)) == []


def test_simulate_step_count_and_monotone_time(ex1_records):
    assert len(ex1_records) == 45
    times = [r.state.t for r in ex1_records]
    assert times == pytest.approx([0.01 * (k + 1) for k in range(45)], abs=1e-12)


def test_simulate_energy_never_increases_unforced(ex1_scenario, ex1_records):
    m, I_z = ex1_scenario.params.m, ex1_scenario.params.I_z
    ke = [
        0.5 * m * (r.state.v_x ** 2 + r.state.v_y ** 2) + 0.5 * I_z * r.state.w_z ** 2
        for r in ex1_records
    ]
    assert all(b < a for a, b in zip(ke, ke[1:]))


def test_simulate_stops_at_rest_with_terminal_marker(ex2_records, ex2_scenario):
    planned = int(round(ex2_scenario.duration / ex2_scenario.h))
    assert len(ex2_records) < planned
    last = ex2_records[-1]
    assert last.diagnostics.rest_flag
    assert (last.state.v_x, last.state.v_y, last.state.w_z) == (0.0, 0.0, 0.0)
    assert last.impulses.sigma == 0.0
    assert not any(r.diagnostics.rest_flag for r in ex2_records[:-1])


def test_zero_rotation_subspace_is_exactly_invariant():
    # no initial spin and no applied torque: p_r and w_z stay exactly zero
    scen = make_scenario(v=(0.9, -0.4), w_z=0.0, duration=0.2,
                         wrench=AppliedWrench(lambda_x=0.3, lambda_y=0.1))
    records = simulate(scen)
    assert len(records) == 20
    for r in records:
        assert r.impulses.p_r == 0.0
        assert r.state.w_z == 0.0
        assert r.state.theta_z == 0.0


def test_rotational_equivariance_with_forcing():
    # rotating initial velocity and the applied wrench about z rotates the
    # translational trajectory and leaves w_z, sigma, p_r, |ECP offset| alone
    phi = 0.7
    c, s = math.cos(phi), math.sin(phi)
    wrench = AppliedWrench(lambda_x=0.5, lambda_y=-0.3, lambda_xtau=0.001,
                           lambda_ytau=0.002, lambda_ztau=0.004)
    rot_wrench = AppliedWrench(
        lambda_x=c * 0.5 - s * -0.3, lambda_y=s * 0.5 + c * -0.3, lambda_z=0.0,
        lambda_xtau=c * 0.001 - s * 0.002, lambda_ytau=s * 0.001 + c * 0.002,
        lambda_ztau=0.004,
    )
    base = simulate(make_scenario(v=(0.6, 0.2), w_z=4.0, patch=DiskPatch(r=0.1),
                                  wrench=wrench, duration=0.1))
    rot = simulate(make_scenario(v=(c * 0.6 - s * 0.2, s * 0.6 + c * 0.2), w_z=4.0,
                                 patch=DiskPatch(r=0.1), wrench=rot_wrench, duration=0.1))
    assert len(base) == len(rot) == 10
    for a, b in zip(base, rot):
        assert abs(c * a.state.v_x - s * a.state.v_y - b.state.v_x) < 1e-8
        assert abs(s * a.state.v_x + c * a.state.v_y - b.state.v_y) < 1e-8
        assert abs(a.state.w_z - b.state.w_z) < 1e-8
        assert abs(a.impulses.sigma - b.impulses.sigma) < 1e-8
        assert abs(a.impulses.p_r - b.impulses.p_r) < 1e-10
        off_a = math.hypot(a.ecp.a_x - a.state.q_x, a.ecp.a_y - a.state.q_y)
        off_b = math.hypot(b.ecp.a_x - b.state.q_x, b.ecp.a_y - b.state.q_y)
        assert abs(off_a - off_b) < 1e-8


def test_step_refinement_is_first_order():
    # halving h roughly halves the final-state difference
    def final_state(h):
        recs = simulate(make_scenario(duration=0.2, h=h))
        st = recs[-1].state
        return np.array([st.v_x, st.v_y, 0.05 * st.w_z, st.q_x, st.q_y])

    f1 = final_state(0.01)
    f2 = final_state(0.005)
    f3 = final_state(0.0025)
    e1 = float(np.linalg.norm(f1 - f2))
    e2 = float(np.linalg.norm(f2 - f3))
    assert 1.5 <= e1 / e2 <= 3.0


def test_topple_policy_error_raises_and_warn_continues():
    tiny = PolygonPatch(((-0.001, -0.001), (0.001, -0.001), (0.001, 0.001), (-0.001, 0.001)))
    err = make_scenario(patch=tiny, duration=0.05,
                        options=RunOptions(topple_policy="error"))
    with pytest.raises(ToppleRiskError) as ei:
        simulate(err)
    assert "step 0" in str(ei.value)

    warn = make_scenario(patch=tiny, duration=0.05)
    with pytest.warns(UserWarning, match="step 0") as caught:
        records = simulate(warn)
    assert len(records) == 5
    assert any(not r.ecp.in_hull for r in records)
    # one warning per run, counting the steps outside the hull
    assert len(caught) == 1
    outside = sum(not r.ecp.in_hull for r in records)
    assert f"({outside} of 5 steps outside it)" in str(caught[0].message)


def test_simulate_attaches_step_index_to_errors():
    # vertical load cancels the weight from t = 0.05 onward
    lift = TableSchedule(
        times=(0.0, 0.05),
        wrenches=(AppliedWrench.zero(), AppliedWrench(lambda_z=0.5 * 9.8 + 1.0)),
    )
    scen = make_scenario(schedule=lift, duration=0.2)
    with pytest.raises(ContactLossError) as ei:
        simulate(scen)
    assert "step 5" in str(ei.value)


def test_simulate_records_solver_diagnostics(ex1_records):
    for r in ex1_records:
        assert r.diagnostics.newton_iters >= 1
        assert r.diagnostics.residual_norm <= 1e-12
        assert r.diagnostics.wall_time > 0.0
        assert not r.diagnostics.rest_flag


@pytest.mark.parametrize("h", [1e-4, 1e-5])
def test_simulate_converges_at_small_steps(ex1_scenario, h):
    # the tolerance is relative to (mu*p_n)^2 and floored at roundoff, so
    # it stays attainable however small the normal impulse gets
    scen = dataclasses.replace(ex1_scenario, h=h)
    records = simulate(scen)
    assert len(records) == int(round(scen.duration / h))
    f = scen.friction
    for r in records:
        i = r.impulses
        target = (f.mu * i.p_n) ** 2
        lhs = (i.p_t / f.e_t) ** 2 + (i.p_o / f.e_o) ** 2 + (i.p_r / f.e_r) ** 2
        assert i.sigma > 0.0
        assert abs(lhs - target) <= 1e-9 * target


def _sweep_scenario(rng: np.random.Generator) -> Scenario:
    # one short run drawn across the valid input space: step length, mass
    # scale, e_r down to its floor, and applied load up to twice friction
    h = 10.0 ** rng.uniform(-5.0, -1.0)
    m = 10.0 ** rng.uniform(-3.0, 3.0)
    half = rng.uniform(0.01, 0.1)
    patch = _square(half) if rng.random() < 0.5 else DiskPatch(r=half)
    friction = FrictionParams(
        mu=rng.uniform(0.1, 1.0),
        e_t=rng.uniform(0.5, 2.0),
        e_o=rng.uniform(0.5, 2.0),
        e_r=10.0 ** rng.uniform(math.log10(MIN_E_R), math.log10(half)),
    )
    load = rng.uniform(0.0, 2.0) * friction.mu * m * 9.8
    phi = rng.uniform(-math.pi, math.pi)
    wrench = AppliedWrench(
        lambda_x=load * math.cos(phi),
        lambda_y=load * math.sin(phi),
        lambda_xtau=rng.uniform(-0.05, 0.05) * load * half,
        lambda_ytau=rng.uniform(-0.05, 0.05) * load * half,
        lambda_ztau=rng.uniform(-1.0, 1.0) * load * friction.e_r,
    )
    speed = 10.0 ** rng.uniform(-3.0, 0.5)
    theta = rng.uniform(-math.pi, math.pi)
    return make_scenario(
        v=(speed * math.cos(theta), speed * math.sin(theta)),
        w_z=math.copysign(10.0 ** rng.uniform(-3.0, 1.5), rng.uniform(-1.0, 1.0)),
        m=m, I_z=m * half ** 2 * rng.uniform(0.3, 1.0), q_z=rng.uniform(0.0, 0.1),
        patch=patch, friction=friction, wrench=wrench, h=h, duration=20 * h,
    )


@pytest.mark.filterwarnings("ignore:step .* left the support hull")
def test_seeded_sweep_over_the_valid_input_space():
    # no run lifts the slider, so any PatchSlideError here is a solver failure
    rng = np.random.default_rng(41)
    failures = []
    rests = 0
    for run in range(200):
        scen = _sweep_scenario(rng)
        try:
            records = simulate(scen)
        except PatchSlideError as e:
            failures.append((run, type(e).__name__, str(e)))
            continue
        rests += records[-1].diagnostics.rest_flag
        f = scen.friction
        for r in records:
            i = r.impulses
            if i.sigma > 0.0:
                target = (f.mu * i.p_n) ** 2
                lhs = (i.p_t / f.e_t) ** 2 + (i.p_o / f.e_o) ** 2 + (i.p_r / f.e_r) ** 2
                assert abs(lhs - target) <= 1e-9 * target, (run, r)
    assert failures == []
    # the sweep reaches the rest branch as well as sliding
    assert rests > 0


def test_solve_step_defaults_are_what_step_runs(ex1_scenario, ex1_records, ex3_scenario, ex3_records):
    # compare and the public solve_step check the configuration simulate runs
    from patchslide import assemble_inputs, solve_step

    for scen, records in ((ex1_scenario, ex1_records), (ex3_scenario, ex3_records)):
        for s in [scen.initial] + [r.state for r in records[4::5]]:
            assert solve_step(assemble_inputs(s, scen)) == step(s, scen).impulses


# ------------------------------------------------------ overflowing loads

def test_overflowing_load_fails_at_load_or_names_the_step():
    # a constant load whose square in ellipsoid units overflows cannot
    # even make a Scenario
    with pytest.raises(ValidationError, match="applied load is too large"):
        make_scenario(wrench=AppliedWrench(lambda_ztau=1e308))
    # a pusher's load depends on the state, so the rest test catches it
    pusher = BodyPusherSchedule(point_body=(-0.025, 0.0, 0.0), direction_body=(1.0, 0.0),
                                force_mean=1e200, force_amp=0.0, period=0.1)
    with pytest.raises(ValidationError, match=r"^step 0: load is too large"):
        simulate(make_scenario(schedule=pusher))


# ------------------------------------------------- per-step call structure

def _pusher_wrench_reference(sched, theta_z, t):
    # the body pusher's wrench as wrench_at computed it on an AppliedWrench
    c = math.cos(theta_z)
    s = math.sin(theta_z)
    dx, dy = sched.direction_body
    mag = sched.force_mean + sched.force_amp * math.cos(2.0 * math.pi * t / sched.period)
    fx = mag * (c * dx - s * dy)
    fy = mag * (s * dx + c * dy)
    px, py, pz = sched.point_body
    rx = c * px - s * py
    ry = s * px + c * py
    return AppliedWrench(fx, fy, 0.0, -pz * fy, pz * fx, rx * fy - ry * fx)


def test_assemble_inputs_pusher_floats_match_the_wrench_path():
    # a pusher step integrates the wrench's floats without building an
    # AppliedWrench; the impulse and normal impulse keep their bits
    rng = np.random.default_rng(19)
    h = 0.01
    for _ in range(200):
        phi = rng.uniform(-math.pi, math.pi)
        sched = BodyPusherSchedule(
            point_body=(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05), rng.uniform(-0.01, 0.01)),
            direction_body=(math.cos(phi), math.sin(phi)),
            force_mean=rng.uniform(0.0, 3.0), force_amp=rng.uniform(0.0, 2.0),
            period=rng.uniform(0.05, 0.5),
        )
        scen = make_scenario(schedule=sched, h=h)
        state = dataclasses.replace(scen.initial, theta_z=rng.uniform(-4.0, 4.0), t=rng.uniform(0.0, 3.0))
        inputs = assemble_inputs(state, scen)
        w = wrench_at(sched, state, state.t)
        assert repr(w) == repr(_pusher_wrench_reference(sched, state.theta_z, state.t))
        assert w.lambda_xtau != 0.0 and w.lambda_ytau != 0.0
        assert repr(inputs.applied) == repr(impulse_over(w, h))
        assert inputs.p_n.hex() == (h * pressing_load(scen.params, w.lambda_z)).hex()


def test_simulate_runs_each_traced_layer_once_per_step(ex3_scenario, monkeypatch):
    # the benchmark times these stepper globals by name; a kernel that
    # stopped calling one would read as a layer that takes no time
    import patchslide.stepper as stepper_module

    calls = Counter()

    def counting(name):
        fn = getattr(stepper_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    per_step = ("step", "assemble_inputs", "solve_step_info", "ecp", "validate_patch")
    for name in per_step + ("convex_hull",):
        monkeypatch.setattr(stepper_module, name, counting(name))
    stepper_module._hull.cache_clear()
    with warnings.catch_warnings():
        # example3's pusher takes the ECP out of the hull
        warnings.simplefilter("ignore", UserWarning)
        records = stepper_module.simulate(ex3_scenario)
    stepper_module._hull.cache_clear()
    assert len(records) == 300
    assert {name: calls[name] for name in per_step} == dict.fromkeys(per_step, len(records))
    assert calls["convex_hull"] <= 1


@pytest.mark.filterwarnings("ignore:step .* left the support hull")
@pytest.mark.parametrize("name", ["example1", "example3"])
def test_simulate_converges_at_first_order_in_h(name):
    # backward Euler on the velocities, the configuration updated with the
    # end-of-step velocities and the load sampled at the start of the step:
    # each halving of h halves the error at T = 0.2 s against h = 1e-2/128
    from patchslide import resolve_scenario

    scen = resolve_scenario(name)

    def final_state(h):
        records = simulate(dataclasses.replace(scen, h=h, duration=0.2))
        assert len(records) == round(0.2 / h)
        s = records[-1].state
        return (s.q_x, s.q_y, s.theta_z, s.v_x, s.v_y, s.w_z)

    ref = final_state(1e-2 / 128)
    errors = []
    for h in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
        errors.append(max(abs(a - b) for a, b in zip(final_state(h), ref)))
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert all(1.8 <= r <= 2.3 for r in ratios), (errors, ratios)


def test_validate_patch_equal_patches_share_the_hull_entry():
    # validate_patch keeps the last patch and its _hull entry and checks
    # identity first; an equal but distinct patch misses that check and
    # must still get what _hull gives, and a different patch its own hull
    import patchslide.stepper as stepper_module

    first = _square(0.025)
    second = _square(0.025)
    assert first == second and first is not second
    origin = (0.0, 0.0, 0.0)
    for patch in (first, second, first):
        assert validate_patch((0.02, 0.0), patch, origin) == (True, True)
        last, entry = stepper_module._last_hull
        assert last is patch
        assert entry == stepper_module._hull(patch) == stepper_module._hull(second)
    wide = _square(0.05)
    assert validate_patch((0.04, 0.0), wide, origin) == (True, True)
    assert validate_patch((0.04, 0.0), first, origin) == (False, False)
    assert stepper_module._last_hull[1] == stepper_module._hull(first)


def test_warm_sigma_extrapolates_the_slip_speed_history():
    from patchslide.stepper import warm_sigma

    assert warm_sigma(0.0, 0.0, 0.0) == 0.0  # no history: cold start
    assert warm_sigma(1.5, 0.0, 0.0) == 1.5
    assert warm_sigma(1.5, 2.0, 0.0) == 1.0  # 2*s1 - s2
    assert warm_sigma(2.0, 1.5, 1.25) == 2.75  # 3*s1 - 3*s2 + s3
    assert warm_sigma(1.0, 1.5, 2.25) == 0.75  # a quadratic is exact
    # an extrapolation that is not positive falls back to the latest
    assert warm_sigma(0.5, 1.0, 0.0) == 0.5  # linear 0.0
    assert warm_sigma(0.5, 1.5, 0.0) == 0.5  # linear -0.5
    assert warm_sigma(0.5, 1.0, 1.5) == 0.5  # quadratic 0.0
    assert warm_sigma(0.2, 1.0, 1.0) == 0.2  # quadratic -1.4


def test_simulate_warm_starts_each_step_from_the_extrapolated_sigma(ex1_scenario, monkeypatch):
    import patchslide.stepper as stepper_module
    from patchslide.stepper import warm_sigma

    guesses = []
    real_step = stepper_module.step

    def spy(state, scen, guess=None):
        guesses.append(guess)
        return real_step(state, scen, guess)

    monkeypatch.setattr(stepper_module, "step", spy)
    records = stepper_module.simulate(ex1_scenario)
    sig = [r.impulses.sigma for r in records]
    expected = [0.0]
    for k in range(1, len(records)):
        history = (sig[k - 1::-1] + [0.0, 0.0])[:3]
        expected.append(warm_sigma(*history))
    assert [g.hex() for g in guesses] == [e.hex() for e in expected]


def test_extrapolated_warm_start_cuts_iterations(ex1_scenario):
    # example1 at h = 1e-3 takes 1.09 scalar iterations per step; it took
    # 2.49 when each solve started from the previous step's sigma
    records = simulate(dataclasses.replace(ex1_scenario, h=1e-3))
    iters = [r.diagnostics.newton_iters for r in records]
    assert len(records) > 300
    assert sum(iters) / len(iters) <= 2.0
