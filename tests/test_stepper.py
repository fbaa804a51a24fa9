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
    normal_impulse,
    resolve_scenario,
    simulate,
    slip_velocity,
    step,
    to_impulse,
    validate_patch,
    wrench_at,
)
from patchslide.scenario import MIN_E_R

from conftest import record_lines, simulate_by_steps, stick_slip_scenarios

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


def test_validate_patch_rejects_an_unknown_patch_type():
    with pytest.raises(TypeError, match="unknown patch type tuple"):
        validate_patch((0.0, 0.0), ((0.0, 0.0),), (0.0, 0.0, 0.0))


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
    # one boundary rule for both tests: a point within 1e-12 m of the
    # patch is in it, whatever the length of the edge it is near (4 m here)
    big_l = PolygonPatch(((0.0, 0.0), (4.0, 0.0), (4.0, 2.0), (2.0, 2.0), (2.0, 4.0), (0.0, 4.0)))
    assert validate_patch((1.0, -5e-13), big_l, (0.0, 0.0, 0.0)) == (True, True)
    assert validate_patch((1.0, -2e-12), big_l, (0.0, 0.0, 0.0)) == (False, False)
    # a repeated vertex is an edge of length 0: only points within the
    # slack of that vertex are near it
    repeated = PolygonPatch(L_SHAPE.vertices[:2] + L_SHAPE.vertices[1:])
    assert not repeated.convex
    assert validate_patch((0.03, 0.0), repeated, (0.0, 0.0, 0.0)) == (False, False)
    assert validate_patch((0.02 + 5e-13, 0.0), repeated, (0.0, 0.0, 0.0)) == (True, True)


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
    # the boundary slack is 1e-12 m, whatever the length of the edge
    assert validate_patch((0.0, -2.0 - 5e-13), _square(2.0), (0.0, 0.0, 0.0)) == (True, True)
    assert validate_patch((0.0, -2.0 - 2e-12), _square(2.0), (0.0, 0.0, 0.0)) == (False, False)


def test_validate_patch_self_intersecting_polygon_keeps_the_ray_cast():
    # its four vertices are the hull's, in the wrong cyclic order
    origin = (0.0, 0.0, 0.0)
    assert validate_patch((0.005, 0.001), BOWTIE, origin) == (True, False)
    assert validate_patch((0.002, 0.005), BOWTIE, origin) == (True, True)
    assert validate_patch((0.025, 0.01), BOWTIE, origin) == (True, True)
    assert validate_patch((0.01, 0.015), BOWTIE, origin) == (False, False)


def _rotate_and_walk(patch, a_x, a_y, q_x, q_y, theta_z):
    # validate_patch's flags by the body-frame tests alone: rotate the point
    # into the body frame, then walk the hull edges, cast the ray or take
    # the radius
    from patchslide.geometry import point_in_convex_edges, point_in_polygon, radius_in_ring, world_to_body

    bx, by = world_to_body(a_x, a_y, q_x, q_y, theta_z)
    if isinstance(patch, PolygonPatch):
        in_hull = point_in_convex_edges(bx, by, patch.hull_edges)
        return (in_hull, in_hull if patch.convex else point_in_polygon(bx, by, patch.vertices))
    r = math.hypot(bx, by)
    if isinstance(patch, DiskPatch):
        return (radius_in_ring(r, 0.0, patch.r),) * 2
    return (radius_in_ring(r, 0.0, patch.r_out), radius_in_ring(r, patch.r_in, patch.r_out))


_CONTAINMENT_PATCHES = {
    "benchmark square": _square(0.03),
    "L-shaped patch": PolygonPatch(((-0.03, -0.03), (0.03, -0.03), (0.03, 0.0), (0.0, 0.0), (0.0, 0.03),
                                    (-0.03, 0.03))),
    # its vertex at (0.03, 0) is 2 degrees; the body origin is 5.2e-4 m
    # from its nearest edge
    "2 degree triangle": PolygonPatch(((0.03, 0.0), (-0.01, -0.04 * math.tan(math.radians(1.0))),
                                       (-0.01, 0.04 * math.tan(math.radians(1.0))))),
    "hull without the origin": PolygonPatch(((0.01, 0.01), (0.03, 0.01), (0.03, 0.03), (0.01, 0.03))),
    "disk": DiskPatch(r=0.03),
    "annulus": AnnulusPatch(r_in=0.01, r_out=0.03),
}


@pytest.mark.parametrize("name", list(_CONTAINMENT_PATCHES))
def test_contains_equals_the_rotate_and_walk_path(name):
    # _contains accepts a point within its region's rotation-invariant band
    # without rotating it; every answer, near each edge of that band and of
    # the patch, at poses up to 1e3 m out and at any heading, is the one
    # the body-frame tests give
    import patchslide.stepper as stepper_module

    patch = _CONTAINMENT_PATCHES[name]
    region = stepper_module._region(patch)
    lo2, hi2 = region[-2:]
    radii = [math.sqrt(r2) for r2 in (lo2, hi2) if 0.0 < r2 < math.inf]
    if isinstance(patch, PolygonPatch):
        radii += [math.hypot(x, y) for x, y in patch.vertices]
    elif isinstance(patch, AnnulusPatch):
        radii += [patch.r_in, patch.r_out]
    else:
        radii.append(patch.r)
    # a fast path where the patch has one, and never where it has none
    assert (hi2 > 0.0) == (name in ("benchmark square", "2 degree triangle", "disk", "annulus"))
    rng = np.random.default_rng(20)
    n = 4000
    banded = 0
    for r in radii:
        rho = r * (1.0 + rng.uniform(-1e-6, 1e-6, n))
        phi = rng.uniform(-math.pi, math.pi, n)
        size = 10.0 ** rng.uniform(-3.0, 3.0, n)
        heading = rng.uniform(-math.pi, math.pi, n)
        theta = rng.uniform(-50.0, 50.0, n)
        for k in range(n):
            q_x, q_y = size[k] * math.cos(heading[k]), size[k] * math.sin(heading[k])
            c, s = math.cos(theta[k]), math.sin(theta[k])
            b_x, b_y = rho[k] * math.cos(phi[k]), rho[k] * math.sin(phi[k])
            a_x, a_y = q_x + c * b_x - s * b_y, q_y + s * b_x + c * b_y
            got = stepper_module._contains(region, a_x, a_y, q_x, q_y, theta[k])
            assert got == _rotate_and_walk(patch, a_x, a_y, q_x, q_y, theta[k]), (r, k)
            d_x, d_y = a_x - q_x, a_y - q_y
            banded += lo2 <= d_x * d_x + d_y * d_y <= hi2
    # the band's own edges are each straddled: it took some points and
    # left others to the full test
    if hi2 > 0.0:
        assert 0 < banded < n * len(radii)


def test_contains_band_keeps_off_the_boundary_by_its_margin():
    # the band lies inside the patch by 1e-9 of its size: a square's
    # inscribed radius less 1e-9 of its circumradius, a disk's and an
    # annulus's radii moved inward by 1e-9 of themselves
    from patchslide.stepper import _contains, _region

    def band(patch):
        return tuple(math.sqrt(r2) for r2 in _region(patch)[-2:])

    assert band(_square(0.03)) == pytest.approx((0.0, 0.03 - 1e-9 * 0.03 * math.sqrt(2.0)), rel=1e-15)
    assert band(DiskPatch(r=0.03)) == pytest.approx((0.0, 0.03 * (1.0 - 1e-9)), rel=1e-15)
    assert band(AnnulusPatch(0.01, 0.03)) == pytest.approx((0.01 * (1.0 + 1e-9), 0.03 * (1.0 - 1e-9)), rel=1e-15)
    # no band: a non-convex patch, a hull that leaves out the body origin
    # or has it on a vertex, and a disk too large for its square
    for patch in (_CONTAINMENT_PATCHES["L-shaped patch"], _CONTAINMENT_PATCHES["hull without the origin"],
                  PolygonPatch(((0.0, 0.0), (0.03, 0.0), (0.0, 0.03))), DiskPatch(r=1e200)):
        lo2, hi2 = _region(patch)[-2:]
        assert not lo2 <= hi2, patch
    # an overflowing offset is never taken as inside
    region = _region(DiskPatch(r=1e150))
    assert region[-1] < math.inf
    assert _contains(region, 1e200, 0.0, 0.0, 0.0, 0.0) == (False, False)


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


def test_slow_slip_rest_keeps_its_end_of_step_velocities(ex1_scenario):
    # a rest step with 0 < sigma < sigma_min under a load that holds a body
    # at rest (example1's zero load) ends the run, but only sigma == 0
    # zeroes the velocities: this one keeps the momentum update's, and its
    # pose advances by h times them
    scen = dataclasses.replace(ex1_scenario, options=dataclasses.replace(ex1_scenario.options, sigma_min=0.1))
    records = simulate(scen)
    assert len(records) == 40
    assert [r.diagnostics.rest_flag for r in records] == [False] * 39 + [True]
    prev, last = records[-2].state, records[-1]
    imp, a, s = last.impulses, last.applied, last.state
    assert 0.0 < imp.sigma < 0.1
    assert imp.sigma == pytest.approx(0.09987, abs=1e-5)
    m, I_z, h = scen.params.m, scen.params.I_z, scen.h
    assert s.v_x == prev.v_x + (imp.p_t + a.p_x) / m
    assert s.v_y == prev.v_y + (imp.p_o + a.p_y) / m
    assert s.w_z == prev.w_z + (imp.p_r + a.p_ztau) / I_z
    assert s.v_x == pytest.approx(0.119, abs=1e-3) and s.w_z == pytest.approx(6.89, abs=1e-2)
    assert (s.q_x, s.q_y, s.theta_z) == (prev.q_x + h * s.v_x, prev.q_y + h * s.v_y, prev.theta_z + h * s.w_z)
    # step applies the same rule
    rec = step(prev, scen)
    assert rec.diagnostics.rest_flag and 0.0 < rec.impulses.sigma < 0.1
    assert rec.state.v_x != 0.0 and rec.state.w_z != 0.0


@pytest.mark.parametrize("name", sorted(stick_slip_scenarios()))
def test_a_rest_the_load_breaks_does_not_end_the_run(name):
    # each run stops, or passes through zero velocity, and slides on under
    # its load: it runs every planned step, with the warm-start history
    # cleared after each rest step, as simulate_by_steps has it
    scen = stick_slip_scenarios()[name]
    records = simulate(scen)
    assert len(records) == round(scen.duration / scen.h)
    rests = [k for k, r in enumerate(records) if r.diagnostics.rest_flag]
    for k in rests:
        assert records[k].impulses.sigma == 0.0
        assert (records[k].state.v_x, records[k].state.v_y, records[k].state.w_z) == (0.0, 0.0, 0.0)
    assert not records[-1].diagnostics.rest_flag
    assert record_lines(records) == record_lines(simulate_by_steps(scen))
    if name == "pusher":
        # at rest through each trough of the push, sliding at each peak
        assert len(rests) == 150
    elif name == "table":
        # at rest under 0.5 N until the 3 N row applies
        assert rests == list(range(11))
        assert records[-1].state.v_x > 1.0
    else:
        # stopped against the push (all but v_x = -0.3), then pushed along +x
        assert len(rests) == (0 if name == "push-0.3" else 1)
        assert records[-1].state.v_x > 1.0


def test_a_rest_the_load_holds_ends_the_run():
    # a push along the motion below mu*m*g = 1.52 N: the slider stops and
    # the load can never move it again, under a constant schedule and
    # under a table past its last row
    table = TableSchedule((0.0, 0.1), (AppliedWrench(lambda_x=0.5), AppliedWrench(lambda_x=1.0)))
    for scen in (make_scenario(v=(0.3, 0.0), w_z=0.0, wrench=AppliedWrench(lambda_x=1.0), duration=0.5),
                 make_scenario(v=(0.3, 0.0), w_z=0.0, schedule=table, duration=0.5)):
        records = simulate(scen)
        assert len(records) < round(scen.duration / scen.h)
        assert [r.diagnostics.rest_flag for r in records] == [False] * (len(records) - 1) + [True]
        assert records[-1].impulses.sigma == 0.0
        assert records[-1].state.t > 0.1
        assert record_lines(records) == record_lines(simulate_by_steps(scen))


def test_a_rest_before_the_last_table_row_does_not_end_the_run():
    # the same stop before the table's last row: the run goes on, resting
    # step after step, until the last row holds the body
    table = TableSchedule((0.0, 0.3), (AppliedWrench(lambda_x=1.0), AppliedWrench(lambda_x=0.5)))
    scen = make_scenario(v=(0.1, 0.0), w_z=0.0, schedule=table, duration=0.5)
    records = simulate(scen)
    rests = [k for k, r in enumerate(records) if r.diagnostics.rest_flag]
    assert rests == list(range(rests[0], len(records)))
    assert records[rests[0]].state.t < 0.3 <= records[-1].state.t
    assert len(records) < round(scen.duration / scen.h)
    assert record_lines(records) == record_lines(simulate_by_steps(scen))


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



def test_simulate_reports_an_overflowing_pusher_phase():
    # example3's pusher with a subnormal period: the phase 2*pi*t/period is
    # 0 at step 0 and inf at step 1, where cos(inf) would raise ValueError
    scen = resolve_scenario("example3")
    scen = dataclasses.replace(scen, schedule=dataclasses.replace(scen.schedule, period=1.0e-320))
    with pytest.raises(ValidationError, match=r"^step 1: pusher phase 2\*pi\*t/period = inf overflows a double"):
        simulate(scen)
    with pytest.raises(ValidationError, match="pusher phase"):
        wrench_at(scen.schedule, scen.initial, 0.01)

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


def _impulse_bits(a: AppliedImpulse) -> tuple[str, ...]:
    return tuple(x.hex() for x in (a.p_x, a.p_y, a.p_z, a.p_xtau, a.p_ytau, a.p_ztau))


def test_solve_step_defaults_are_what_step_runs(ex1_scenario, ex1_records, ex3_scenario, ex3_records):
    # the public solve_step checks the configuration simulate runs:
    # assemble_inputs, built on the public load functions, gives each
    # step the applied and normal impulse of simulate's float loop, bit for
    # bit, under a constant load, a body pusher, and a table with a stretch
    # before its first row and rows of different lambda_z
    from patchslide import assemble_inputs, solve_step

    table = _one_path_scenarios()["table"]
    table_records = simulate(table)
    assert len({r.impulses.p_n for r in table_records}) == 4
    for scen, records in ((ex1_scenario, ex1_records), (ex3_scenario, ex3_records), (table, table_records)):
        starts = [scen.initial] + [r.state for r in records[:-1]]
        for s, r in zip(starts, records):
            inputs = assemble_inputs(s, scen)
            assert _impulse_bits(inputs.applied) == _impulse_bits(r.applied)
            assert inputs.p_n.hex() == r.impulses.p_n.hex()
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


def underflowing_normal_impulse() -> Scenario:
    """example1 at rest with a mass and a step so small that the normal
    impulse h*(m*g - lambda_z) rounds to 0.0: a valid Scenario that no
    step can solve."""
    ex1 = resolve_scenario("example1")
    return dataclasses.replace(
        ex1, params=dataclasses.replace(ex1.params, m=1e-31, I_z=1e-35), h=1e-300, duration=1e-299,
        initial=dataclasses.replace(ex1.initial, v_x=0.0, v_y=0.0, w_z=0.0))


def test_normal_impulse_that_underflows_names_the_step():
    scen = underflowing_normal_impulse()
    assert scen.params.m * scen.params.g > 0.0 and normal_impulse(scen.params, AppliedWrench.zero(), scen.h) == 0.0
    with pytest.raises(ValidationError, match=r"^step 0: normal impulse must be positive$"):
        simulate(scen)


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
        assert repr(inputs.applied) == repr(to_impulse(w, h))
        assert inputs.p_n.hex() == normal_impulse(scen.params, w, h).hex()


def test_simulate_runs_each_traced_layer_once_per_step(ex3_scenario, monkeypatch):
    # the kernel's per-step calls are stepper globals, looked up at each
    # call, so that a tracer can wrap them by name: the float solve and the
    # ECP containment, once per step each
    import patchslide.stepper as stepper_module

    calls = Counter()

    def counting(name):
        fn = getattr(stepper_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    per_step = ("_solve_floats", "_contains")
    for name in per_step:
        monkeypatch.setattr(stepper_module, name, counting(name))
    records = stepper_module.simulate(ex3_scenario)
    assert len(records) == 300
    assert dict(calls) == dict.fromkeys(per_step, len(records))
    # the benchmark's tracer resolves these stepper globals by name, and
    # fails without them
    for name in ("step", "assemble_inputs", "solve_step_info", "ecp", "validate_patch", "convex_hull"):
        assert callable(getattr(stepper_module, name)), name


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


def test_validate_patch_equal_patches_carry_equal_hull_fields():
    # each patch computes its hull on construction; equal but distinct
    # patches carry equal hull fields and get the same answers, and a
    # different patch its own hull
    first = _square(0.025)
    second = _square(0.025)
    assert first == second and first is not second
    assert (first.hull_edges, first.convex) == (second.hull_edges, second.convex)
    origin = (0.0, 0.0, 0.0)
    for patch in (first, second, first):
        assert validate_patch((0.02, 0.0), patch, origin) == (True, True)
    wide = _square(0.05)
    assert wide.hull_edges != first.hull_edges
    assert validate_patch((0.04, 0.0), wide, origin) == (True, True)
    assert validate_patch((0.04, 0.0), first, origin) == (False, False)


def test_warm_sigma_extrapolates_the_slip_speed_history():
    from patchslide.stepper import warm_sigma

    assert warm_sigma(0.0, 0.0, 0.0) == 0.0  # no history: cold start
    assert warm_sigma(0.0, 0.0, 0.0, 0.0, 0.0) == 0.0
    assert warm_sigma(1.5, 0.0, 0.0) == 1.5
    assert warm_sigma(1.5, 2.0, 0.0) == 1.0  # 2*s1 - s2
    assert warm_sigma(2.0, 1.5, 1.25) == 2.75  # 3*s1 - 3*s2 + s3
    assert warm_sigma(1.0, 1.5, 2.25) == 0.75  # a quadratic is exact
    # an extrapolation that is not positive falls back to the latest
    assert warm_sigma(0.5, 1.0, 0.0) == 0.5  # linear 0.0
    assert warm_sigma(0.5, 1.5, 0.0) == 0.5  # linear -0.5
    assert warm_sigma(0.5, 1.0, 1.5) == 0.5  # quadratic 0.0
    assert warm_sigma(0.2, 1.0, 1.0) == 0.2  # quadratic -1.4


def _history(poly, n):
    # the last n values of poly at t = -1, -2, ..., latest first, and its
    # value at t = 0
    return [poly(-t) for t in range(1, n + 1)], poly(0)


def _cubic(t):
    # positive for t <= 0, as slip speeds are
    return -2.0 * t**3 + 3.0 * t**2 - 5.0 * t + 40.0


def _quartic(t):
    return t**4 - 2.0 * t**3 + 3.0 * t**2 - 5.0 * t + 40.0


def test_warm_sigma_is_exact_on_cubic_and_quartic_histories():
    from patchslide.stepper import warm_sigma

    # small integer coefficients: every value and every intermediate is an
    # exact double, so an exact extrapolation compares equal
    history, nxt = _history(_cubic, 4)
    assert warm_sigma(*history) == nxt == 40.0
    assert warm_sigma(*history, 0.0) == 40.0
    history, _ = _history(_cubic, 5)
    assert warm_sigma(*history) == 40.0  # the quartic is exact on a cubic too
    history, nxt = _history(_quartic, 5)
    assert warm_sigma(*history) == nxt == 40.0
    assert warm_sigma(*history[:4]) != 40.0  # the cubic is not exact on it
    # 4*s1 - 6*s2 + 4*s3 - s4 and 5*(s1 - s4) - 10*(s2 - s3) + s5 by hand
    assert warm_sigma(3.0, 2.5, 2.25, 2.0) == 4.0 * (3.0 + 2.25) - 6.0 * 2.5 - 2.0 == 4.0
    assert warm_sigma(3.0, 2.5, 2.25, 2.0, 1.0) == 5.0 * (3.0 - 2.0) - 10.0 * (2.5 - 2.25) + 1.0 == 3.5
    # a constant history gives itself back bit for bit, at every order, so a
    # steady slide (a quasi-static fixed point) is not nudged by roundoff
    for sigma in (0.1, 1.0 / 3.0, 0.7234567891234567, 1e-300, 1e300):
        for n in range(1, 6):
            assert warm_sigma(*[sigma] * n + [0.0] * (5 - n)) == sigma, (sigma, n)


def test_warm_sigma_falls_back_to_lower_orders_and_to_the_latest():
    from patchslide.stepper import warm_sigma

    # a shorter history takes the extrapolation of its own length: four
    # slip speeds and a step not taken give the cubic, three the quadratic
    assert warm_sigma(4.0, 3.0, 2.5, 1.0, 0.0) == 4.0 * (4.0 + 2.5) - 6.0 * 3.0 - 1.0
    assert warm_sigma(4.0, 3.0, 2.5, 0.0, 0.0) == 3.0 * (4.0 - 3.0) + 2.5
    assert warm_sigma(4.0, 3.0, 0.0, 0.0, 0.0) == 5.0
    assert warm_sigma(4.0, 0.0, 0.0, 0.0, 0.0) == 4.0
    # a falling history whose extrapolation is not positive falls back to s1
    assert warm_sigma(0.5, 1.0, 1.5, 2.5) == 0.5  # cubic -0.5
    assert warm_sigma(0.5, 1.0, 1.5, 2.0) == 0.5  # cubic 0.0
    assert warm_sigma(0.5, 1.0, 1.5, 2.0, 2.0) == 0.5  # quartic -0.5
    assert warm_sigma(0.5, 1.0, 1.5, 2.0, 2.5) == 0.5  # quartic 0.0
    assert warm_sigma(1e-9, 1.0, 2.0, 3.0, 4.0) == 1e-9  # quartic -1 + 5e-9


def test_simulate_warm_starts_each_step_from_the_extrapolated_sigma(ex1_scenario, monkeypatch):
    import patchslide.stepper as stepper_module
    from patchslide.stepper import warm_sigma

    guesses = []
    real_solve = stepper_module._solve_floats

    def spy(*args):
        guesses.append(args[-1])
        return real_solve(*args)

    monkeypatch.setattr(stepper_module, "_solve_floats", spy)
    records = stepper_module.simulate(ex1_scenario)
    sig = [r.impulses.sigma for r in records]
    expected = [0.0]
    for k in range(1, len(records)):
        history = (sig[k - 1::-1] + [0.0] * 4)[:5]
        expected.append(warm_sigma(*history))
    assert [g.hex() for g in guesses] == [e.hex() for e in expected]


def _one_path_scenarios():
    from patchslide import resolve_scenario

    ex1 = resolve_scenario("example1")
    replace = dataclasses.replace
    table = TableSchedule((0.055, 0.15, 0.27), (AppliedWrench(lambda_x=0.2, lambda_z=1.5),
                                                AppliedWrench(lambda_x=-0.3, lambda_z=-2.0, lambda_ztau=0.002),
                                                AppliedWrench(lambda_y=0.4, lambda_z=3.0)))
    # a 6 cm square without its +x, +y quadrant: example1's ECP enters the
    # notch, so the ray cast decides in_patch
    notched = PolygonPatch(((-0.03, -0.03), (0.03, -0.03), (0.03, 0.0), (0.0, 0.0), (0.0, 0.03), (-0.03, 0.03)))
    no_spin = replace(ex1.initial, w_z=0.0)
    lifted = TableSchedule((0.115,), (AppliedWrench(lambda_z=6.0),))
    anisotropic = FrictionParams(mu=0.31, e_t=1.0, e_o=1.3, e_r=0.01)
    return {
        "example1": ex1,
        "example2": resolve_scenario("example2"),
        "example3": resolve_scenario("example3"),
        "example1 h=1e-3": replace(ex1, h=1e-3),
        "table": replace(ex1, schedule=table),
        "L-shaped patch": replace(ex1, params=replace(ex1.params, patch=notched)),
        # the ECP leaves this square's hull at steps 6 and later
        "outside the hull": make_scenario(patch=_square(0.022)),
        # pure translations, under isotropic and anisotropic friction
        "translation": replace(ex1, initial=no_spin),
        "anisotropic translation": replace(ex1, initial=no_spin, friction=anisotropic),
        # errors: a table row that lifts the slider from step 12, and a
        # step outside the hull under topple_policy "error"
        "contact loss": replace(ex1, schedule=lifted),
        "topple": make_scenario(patch=_square(0.022), options=RunOptions(topple_policy="error")),
    }


@pytest.mark.filterwarnings("ignore:step .* left the support hull")
@pytest.mark.parametrize("name", list(_one_path_scenarios()))
def test_simulate_is_a_loop_of_steps(name):
    # simulate computes each load's constants once per run and step for
    # each call: both run one kernel, so the records are the same bits, and
    # simulate's errors name the step as the loop's do
    scen = _one_path_scenarios()[name]

    def outcome(run):
        try:
            return record_lines(run(scen))
        except PatchSlideError as e:
            return f"{type(e).__name__}: {e}"

    got = outcome(simulate)
    assert got == outcome(simulate_by_steps)
    if name in ("contact loss", "topple"):
        assert isinstance(got, str) and ": step " in got, got
    else:
        assert len(got) > 10
    if name == "L-shaped patch":
        flags = {(r.ecp.in_hull, r.ecp.in_patch) for r in simulate(scen)}
        assert (True, False) in flags


def test_extrapolated_warm_start_cuts_iterations(ex1_scenario):
    # example1 at h = 1e-3 takes 0.98 scalar iterations per step (1.09
    # from a three-step extrapolation); it took 2.49 when each solve
    # started from the previous step's sigma
    records = simulate(dataclasses.replace(ex1_scenario, h=1e-3))
    iters = [r.diagnostics.newton_iters for r in records]
    assert len(records) > 300
    assert sum(iters) / len(iters) <= 2.0


# ------------------------------------------------- a run's held loads

def _held_loads(scen, records):
    # the records grouped by the wrench held over their step, sampled at
    # the step's start, in the order the run reaches them.  Each group's
    # steps share one applied impulse, to_impulse of the wrench, and have
    # its normal_impulse; returns each wrench with its step count
    held: dict = {}
    for start, r in zip([scen.initial] + [r.state for r in records], records):
        w = wrench_at(scen.schedule, start, start.t)
        held.setdefault(id(w), (w, []))[1].append(r)
    for w, group in held.values():
        assert len({id(r.applied) for r in group}) == 1
        assert _impulse_bits(group[0].applied) == _impulse_bits(to_impulse(w, scen.h))
        assert {r.impulses.p_n.hex() for r in group} == {normal_impulse(scen.params, w, scen.h).hex()}
    return [(w, len(group)) for w, group in held.values()]


def test_memos_follow_a_table_load_whose_normal_force_changes():
    # lambda_z changes at each row, so p_n changes mid-run while params stays
    # the same object; each row is also held over several steps, and the
    # solve's constants, computed once per row in a run, must follow p_n
    rows = (0.0, 0.1, 0.2, 0.3)
    wrenches = (AppliedWrench(lambda_x=0.2), AppliedWrench(lambda_x=-0.3, lambda_z=1.5),
                AppliedWrench(lambda_y=0.4, lambda_z=-2.0, lambda_ztau=0.002),
                AppliedWrench(lambda_z=3.0))
    scen = make_scenario(schedule=TableSchedule(rows, wrenches), duration=0.4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        records = simulate(scen)
        fresh = simulate_by_steps(scen)
    assert len(records) == 40
    assert len({r.impulses.p_n for r in records}) == 4
    assert record_lines(records) == record_lines(fresh)
    # each row's steps share one impulse, built from the row's wrench
    assert [w for w, _ in _held_loads(scen, records)] == list(wrenches)


def test_steps_before_a_tables_first_row_share_one_zero_load():
    # before the first row a table holds the zero wrench: those steps share
    # its impulse, as each row's steps share the row's
    rows = (0.105, 0.2)
    wrenches = (AppliedWrench(lambda_x=0.2), AppliedWrench(lambda_y=-0.3, lambda_ztau=0.002))
    scen = make_scenario(schedule=TableSchedule(rows, wrenches), duration=0.3)
    assert wrench_at(scen.schedule, scen.initial, 0.0) is wrench_at(scen.schedule, scen.initial, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        records = simulate(scen)
        fresh = simulate_by_steps(scen)
    assert len(records) == 30
    # steps 0-10 start before the first row
    assert _held_loads(scen, records) == [(AppliedWrench.zero(), 11), (wrenches[0], 9), (wrenches[1], 10)]
    assert record_lines(records) == record_lines(fresh)


def test_every_step_of_a_constant_load_shares_one_impulse():
    wrench = AppliedWrench(lambda_x=0.3, lambda_y=-0.1, lambda_z=1.0, lambda_ztau=0.001)
    scen = make_scenario(wrench=wrench, duration=0.1)
    records = simulate(scen)
    assert len(records) == 10
    assert _held_loads(scen, records) == [(wrench, 10)]


def test_derived_loads_follow_the_step_length():
    # one ConstantSchedule wrench object run at two step lengths back to
    # back: each run builds its impulse with its own h
    schedule = ConstantSchedule(AppliedWrench(lambda_x=0.3, lambda_y=-0.1, lambda_z=1.0, lambda_ztau=0.001))
    coarse = make_scenario(schedule=schedule, h=0.01, duration=0.1)
    fine = dataclasses.replace(coarse, h=0.005)
    assert fine.schedule is coarse.schedule
    runs = [simulate(scen) for scen in (coarse, fine, coarse)]
    for scen, records in zip((coarse, fine, coarse), runs):
        assert record_lines(records) == record_lines(simulate_by_steps(scen))
        assert _held_loads(scen, records) == [(schedule.wrench, len(records))]
    assert runs[1][0].applied == to_impulse(schedule.wrench, 0.005) != runs[0][0].applied
