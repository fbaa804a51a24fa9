"""Wrench schedules, impulse integration, normal impulse, and the
validation rules on the shared types."""

import dataclasses
import inspect
import math
import pickle
import struct
from copy import copy, deepcopy

import numpy as np
import pytest

import patchslide
from patchslide import (
    AnnulusPatch,
    AppliedImpulse,
    AppliedWrench,
    BodyPusherSchedule,
    ConstantSchedule,
    ContactLossError,
    DiskPatch,
    FrictionParams,
    PolygonPatch,
    SliderParams,
    SliderState,
    StepInputs,
    TableSchedule,
    ValidationError,
    normal_impulse,
    to_impulse,
    wrench_at,
)
from patchslide.core import value_type

SQUARE = PolygonPatch(((-0.025, -0.025), (0.025, -0.025), (0.025, 0.025), (-0.025, 0.025)))


def _state(theta_z=0.0, t=0.0):
    return SliderState(q_x=0.0, q_y=0.0, theta_z=theta_z, v_x=0.0, v_y=0.0, w_z=0.0, t=t)


# ---------------------------------------------------------------- wrench_at

def test_constant_schedule_returns_its_wrench_at_any_time():
    w = AppliedWrench(lambda_x=1.5, lambda_ztau=-0.2)
    sched = ConstantSchedule(w)
    for t in (0.0, 0.37, 1e6):
        assert wrench_at(sched, _state(), t) == w
    assert wrench_at(ConstantSchedule(AppliedWrench.zero()), _state(), 0.1) == AppliedWrench.zero()


def test_pusher_magnitude_at_peak_and_trough():
    # mean 2.2, amplitude 2, period 0.1: 4.2 N at t=0, 0.2 N at t=0.05
    sched = BodyPusherSchedule(
        point_body=(0.0, 0.0, 0.0), direction_body=(1.0, 0.0),
        force_mean=2.2, force_amp=2.0, period=0.1,
    )
    w0 = wrench_at(sched, _state(), 0.0)
    assert w0.lambda_x == pytest.approx(4.2, abs=1e-15)
    assert w0.lambda_y == 0.0
    w_half = wrench_at(sched, _state(), 0.05)
    assert w_half.lambda_x == pytest.approx(0.2, abs=1e-12)


def test_pusher_periodicity_in_time():
    sched = BodyPusherSchedule(
        point_body=(-0.025, -0.0025, 0.0), direction_body=(1.0, 0.0),
        force_mean=2.2, force_amp=2.0, period=0.1,
    )
    s = _state(theta_z=0.4)
    for t in (0.0, 0.013, 0.071):
        a = wrench_at(sched, s, t)
        b = wrench_at(sched, s, t + 0.1)
        assert a.lambda_x == pytest.approx(b.lambda_x, abs=1e-12)
        assert a.lambda_y == pytest.approx(b.lambda_y, abs=1e-12)
        assert a.lambda_ztau == pytest.approx(b.lambda_ztau, abs=1e-14)


def test_pusher_moment_with_height_offset():
    # unit push along +x at a point 2.5 mm below the CM plane: the lever
    # arm (-0.025, 0, -0.0025) crossed with (1, 0, 0) gives tau_y = -0.0025
    sched = BodyPusherSchedule(
        point_body=(-0.025, 0.0, -0.0025), direction_body=(1.0, 0.0),
        force_mean=1.0, force_amp=0.0, period=1.0,
    )
    w = wrench_at(sched, _state(), 0.0)
    assert w.lambda_x == pytest.approx(1.0, abs=1e-15)
    assert w.lambda_y == 0.0
    assert w.lambda_z == 0.0
    assert w.lambda_xtau == 0.0
    assert w.lambda_ytau == pytest.approx(-0.0025, abs=1e-18)
    assert w.lambda_ztau == 0.0


def test_pusher_moment_with_in_plane_offset():
    # unit push along +x applied 2.5 mm to the -y side of the CM:
    # tau_z = r_x f_y - r_y f_x = 0 - (-0.0025)(1) = +0.0025
    sched = BodyPusherSchedule(
        point_body=(-0.025, -0.0025, 0.0), direction_body=(1.0, 0.0),
        force_mean=1.0, force_amp=0.0, period=1.0,
    )
    w = wrench_at(sched, _state(), 0.0)
    assert w.lambda_ztau == pytest.approx(0.0025, abs=1e-18)
    assert w.lambda_xtau == 0.0
    assert w.lambda_ytau == 0.0


def test_pusher_rotates_with_the_body():
    # rotating the slider rotates the force vector and leaves tau_z alone
    sched = BodyPusherSchedule(
        point_body=(-0.025, -0.0025, 0.0), direction_body=(1.0, 0.0),
        force_mean=2.0, force_amp=0.0, period=1.0,
    )
    w0 = wrench_at(sched, _state(theta_z=0.0), 0.0)
    phi = 0.85
    w1 = wrench_at(sched, _state(theta_z=phi), 0.0)
    c, s = math.cos(phi), math.sin(phi)
    assert w1.lambda_x == pytest.approx(c * w0.lambda_x - s * w0.lambda_y, abs=1e-15)
    assert w1.lambda_y == pytest.approx(s * w0.lambda_x + c * w0.lambda_y, abs=1e-15)
    assert w1.lambda_ztau == pytest.approx(w0.lambda_ztau, abs=1e-15)


def test_table_schedule_zero_order_hold():
    w1 = AppliedWrench(lambda_x=1.0)
    w2 = AppliedWrench(lambda_x=2.0)
    sched = TableSchedule(times=(0.1, 0.5), wrenches=(w1, w2))
    assert wrench_at(sched, _state(), 0.0) == AppliedWrench.zero()   # before first sample
    assert wrench_at(sched, _state(), 0.1) == w1                      # boundary inclusive
    assert wrench_at(sched, _state(), 0.3) == w1
    assert wrench_at(sched, _state(), 0.5) == w2
    assert wrench_at(sched, _state(), 99.0) == w2                     # holds past the last row


# -------------------------------------------------------------- to_impulse

def test_to_impulse_scales_componentwise():
    assert to_impulse(AppliedWrench.zero(), 0.01) == AppliedImpulse()
    assert to_impulse(AppliedWrench(lambda_x=2.2), 0.01).p_x == pytest.approx(0.022, rel=1e-15)
    assert to_impulse(AppliedWrench(lambda_ztau=0.5), 0.02).p_ztau == pytest.approx(0.01, abs=1e-18)


def test_to_impulse_is_linear():
    w = AppliedWrench(lambda_x=1.3, lambda_y=-0.4, lambda_z=0.2,
                      lambda_xtau=0.05, lambda_ytau=-0.07, lambda_ztau=0.9)
    h = 0.013
    base = to_impulse(w, h)
    for alpha in (-2.0, 0.5, 3.0):
        scaled = AppliedWrench(*(alpha * getattr(w, k) for k in (
            "lambda_x", "lambda_y", "lambda_z", "lambda_xtau", "lambda_ytau", "lambda_ztau")))
        got = to_impulse(scaled, h)
        for k in ("p_x", "p_y", "p_z", "p_xtau", "p_ytau", "p_ztau"):
            assert getattr(got, k) == pytest.approx(alpha * getattr(base, k), rel=1e-15)


def test_to_impulse_rejects_nonpositive_step():
    with pytest.raises(ValidationError):
        to_impulse(AppliedWrench.zero(), 0.0)


# ---------------------------------------------------------- normal_impulse

def test_normal_impulse_values():
    light = SliderParams(m=0.5, I_z=5e-4, q_z=0.08, g=9.8, patch=SQUARE)
    heavy = SliderParams(m=1.0, I_z=2.6e-4, q_z=0.08, g=9.8, patch=AnnulusPatch(0.05, 0.1))
    assert normal_impulse(light, AppliedWrench.zero(), 0.01) == pytest.approx(0.049, abs=1e-18)
    assert normal_impulse(heavy, AppliedWrench.zero(), 0.01) == pytest.approx(0.098, abs=1e-18)


def test_normal_impulse_ignores_tangential_components():
    p = SliderParams(m=0.5, I_z=5e-4, q_z=0.08, g=9.8, patch=SQUARE)
    loaded = AppliedWrench(lambda_x=50.0, lambda_y=-20.0, lambda_ztau=3.0)
    assert normal_impulse(p, loaded, 0.01) == normal_impulse(p, AppliedWrench.zero(), 0.01)


def test_normal_impulse_contact_loss():
    p = SliderParams(m=0.5, I_z=5e-4, q_z=0.08, g=9.8, patch=SQUARE)
    with pytest.raises(ContactLossError):
        normal_impulse(p, AppliedWrench(lambda_z=0.5 * 9.8), 0.01)
    with pytest.raises(ContactLossError):
        normal_impulse(p, AppliedWrench(lambda_z=10.0), 0.01)


# ------------------------------------------------------------- validation

def test_slider_params_validation():
    for bad in (
        dict(m=0.0), dict(m=-1.0), dict(I_z=0.0), dict(q_z=-0.01), dict(g=0.0),
        dict(m=math.nan), dict(I_z=math.inf),
    ):
        kw = dict(m=0.5, I_z=5e-4, q_z=0.08, g=9.8, patch=SQUARE)
        kw.update(bad)
        with pytest.raises(ValidationError):
            SliderParams(**kw)


def test_friction_params_validation():
    for bad in (dict(mu=0.0), dict(e_t=0.0), dict(e_o=-1.0), dict(e_r=0.0), dict(mu=math.nan)):
        kw = dict(mu=0.31, e_t=1.0, e_o=1.0, e_r=0.01)
        kw.update(bad)
        with pytest.raises(ValidationError):
            FrictionParams(**kw)


def test_patch_validation():
    with pytest.raises(ValidationError):
        PolygonPatch(((0.0, 0.0), (1.0, 0.0)))          # too few vertices
    with pytest.raises(ValidationError):
        PolygonPatch(((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)))  # collinear, zero area
    with pytest.raises(ValidationError):
        AnnulusPatch(r_in=0.1, r_out=0.1)
    with pytest.raises(ValidationError):
        AnnulusPatch(r_in=-0.01, r_out=0.1)
    with pytest.raises(ValidationError):
        DiskPatch(r=0.0)
    AnnulusPatch(r_in=0.0, r_out=0.1)  # degenerate-to-disk ring is allowed


def test_polygon_patch_rejects_collinear_vertices_with_roundoff_area():
    # a vertex interpolated between two others lies on their line up to the
    # rounding of its coordinates; the shoelace sum of such a triple is
    # nonzero only by roundoff, and its hull is a segment or a sliver.  Every
    # one is zero area; thin but real patches, anywhere in the plane, are not
    rng = np.random.default_rng(29)
    ends = rng.uniform(-1.0, 1.0, (20_000, 2, 2))
    ts = rng.uniform(0.0, 1.0, 20_000)
    accepted = []
    for (p0, p2), t in zip(ends, ts):
        p1 = p0 + t * (p2 - p0)
        verts = tuple((float(x), float(y)) for x, y in (p0, p1, p2))
        try:
            PolygonPatch(verts)
        except ValidationError as e:
            assert "zero area" in str(e)
        else:
            accepted.append(verts)
    assert accepted == []
    for width in (1e-9, 1e-6, 1e-3):
        for cx, cy in ((0.0, 0.0), (0.7, -0.4), (30.0, 30.0)):
            sliver = ((cx - 0.5, cy), (cx + 0.5, cy), (cx, cy + width))
            assert PolygonPatch(sliver).vertices == sliver
            rect = ((cx, cy), (cx + 1.0, cy), (cx + 1.0, cy + width), (cx, cy + width))
            assert PolygonPatch(rect).vertices == rect


def test_polygon_patch_rejects_collinear_vertices_on_lines_through_the_origin():
    # with two vertices near the origin the shoelace products are small
    # while the interpolated vertex keeps the rounding of its own
    # coordinates; a bound on the products alone let such triples through
    rng = np.random.default_rng(31)
    n = 200_000
    angle = rng.uniform(-math.pi, math.pi, n)
    d = np.stack((np.cos(angle), np.sin(angle)), axis=1)
    p0 = rng.uniform(-1.0, 1.0, (n, 1)) * d
    p2 = rng.uniform(-1.0, 1.0, (n, 1)) * d
    p1 = p0 + rng.uniform(0.0, 1.0, (n, 1)) * (p2 - p0)
    accepted = 0
    for verts in zip(map(tuple, p0.tolist()), map(tuple, p1.tolist()), map(tuple, p2.tolist())):
        try:
            PolygonPatch(verts)
        except ValidationError as e:
            assert "zero area" in str(e)
        else:
            accepted += 1
    assert accepted == 0



def test_polygon_patch_with_overflowing_products_is_too_large_not_flat():
    # the shoelace products of coordinates near 1e160 overflow to inf;
    # those near 1e-170 underflow to 0 and stay a zero-area patch
    with pytest.raises(ValidationError, match="too large for the area test in doubles"):
        PolygonPatch(((0.0, 0.0), (1e160, 0.0), (0.0, 1e160)))
    with pytest.raises(ValidationError, match="^polygon patch has zero area$"):
        PolygonPatch(((0.0, 0.0), (1e-170, 0.0), (0.0, 1e-170)))
    assert PolygonPatch(((0.0, 0.0), (1e150, 0.0), (0.0, 1e150))).convex

def test_pusher_schedule_validation():
    with pytest.raises(ValidationError):
        BodyPusherSchedule(point_body=(0, 0, 0), direction_body=(1.0, 1.0),
                           force_mean=1.0, force_amp=0.0, period=1.0)  # not unit
    with pytest.raises(ValidationError):
        BodyPusherSchedule(point_body=(0, 0, 0), direction_body=(1.0, 0.0),
                           force_mean=1.0, force_amp=0.0, period=0.0)


def test_table_schedule_validation():
    w = AppliedWrench.zero()
    with pytest.raises(ValidationError):
        TableSchedule(times=(0.0, 0.0), wrenches=(w, w))   # not strictly increasing
    with pytest.raises(ValidationError):
        TableSchedule(times=(0.0,), wrenches=(w, w))       # length mismatch
    with pytest.raises(ValidationError):
        TableSchedule(times=(), wrenches=())


def test_step_inputs_validation():
    p = SliderParams(m=0.5, I_z=5e-4, q_z=0.08, g=9.8, patch=SQUARE)
    f = FrictionParams(mu=0.31, e_t=1.0, e_o=1.0, e_r=0.01)
    s = _state()
    with pytest.raises(ValidationError):
        StepInputs(params=p, friction=f, state=s, applied=AppliedImpulse(), p_n=0.0)


# ------------------------------------------------------------- value types

# the constructor signatures of the frozen dataclass-generated __init__s,
# pinned: the compiled __new__ must show the same names, defaults and
# annotations
SIGNATURES = {
    "AnnulusPatch": "(r_in: 'float', r_out: 'float') -> None",
    "AppliedImpulse": "(p_x: 'float' = 0.0, p_y: 'float' = 0.0, p_z: 'float' = 0.0, p_xtau: 'float' = 0.0, p_ytau: 'float' = 0.0, p_ztau: 'float' = 0.0) -> None",
    "AppliedWrench": "(lambda_x: 'float' = 0.0, lambda_y: 'float' = 0.0, lambda_z: 'float' = 0.0, lambda_xtau: 'float' = 0.0, lambda_ytau: 'float' = 0.0, lambda_ztau: 'float' = 0.0) -> None",
    "BodyPusherSchedule": "(point_body: 'tuple[float, float, float]', direction_body: 'tuple[float, float]', force_mean: 'float', force_amp: 'float', period: 'float') -> None",
    "ConstantSchedule": "(wrench: 'AppliedWrench') -> None",
    "ContactImpulse": "(p_t: 'float', p_o: 'float', p_r: 'float', sigma: 'float', p_n: 'float') -> None",
    "DiskPatch": "(r: 'float') -> None",
    "Ecp": "(a_x: 'float', a_y: 'float', in_hull: 'bool', in_patch: 'bool') -> None",
    "FrictionEstimate": "(et2mu: 'float', ratio_o: 'float', ratio_r: 'float', per_step: 'tuple[tuple[float, float, float], ...]', dispersion: 'tuple[float, float, float]', n_skipped: 'int') -> None",
    "FrictionParams": "(mu: 'float', e_t: 'float', e_o: 'float', e_r: 'float') -> None",
    "KktReport": "(residual_norm: 'float', ellipsoid_gap: 'float', sigma_identity_gap: 'float', dissipation_optimality: 'bool') -> None",
    "ObservedStep": "(state_u: 'SliderState', state_u1: 'SliderState', applied: 'AppliedImpulse', p_n: 'float') -> None",
    "PolygonPatch": "(vertices: 'tuple[tuple[float, float], ...]') -> None",
    "QuasiStaticInput": "(contact_point: 'tuple[float, float]', contact_velocity: 'tuple[float, float]', cm: 'tuple[float, float]' = (0.0, 0.0), c: 'float' = 1.0) -> None",
    "Reconstruction": "(p_t: 'float', p_o: 'float', p_r: 'float', v_t: 'float', v_o: 'float', v_r: 'float') -> None",
    "RunOptions": "(sigma_min: 'float' = 1e-06, topple_policy: 'str' = 'warn', output_path: 'str | None' = None) -> None",
    "Scenario": "(params: 'SliderParams', friction: 'FrictionParams', initial: 'SliderState', schedule: 'WrenchSchedule', h: 'float', duration: 'float', options: 'RunOptions' = RunOptions(sigma_min=1e-06, topple_policy='warn', output_path=None)) -> None",
    "SliderParams": "(m: 'float', I_z: 'float', q_z: 'float', g: 'float', patch: 'ContactPatch') -> None",
    "SliderState": "(q_x: 'float', q_y: 'float', theta_z: 'float', v_x: 'float', v_y: 'float', w_z: 'float', t: 'float') -> None",
    "SlipVelocity": "(v_t: 'float', v_o: 'float', v_r: 'float') -> None",
    "SolveInfo": "(iters: 'int', residual_norm: 'float', rest: 'bool', starts: 'int') -> None",
    "StepDiagnostics": "(newton_iters: 'int', residual_norm: 'float', rest_flag: 'bool', wall_time: 'float' = 0.0) -> None",
    "StepInputs": "(params: 'SliderParams', friction: 'FrictionParams', state: 'SliderState', applied: 'AppliedImpulse', p_n: 'float') -> None",
    "TableSchedule": "(times: 'tuple[float, ...]', wrenches: 'tuple[AppliedWrench, ...]') -> None",
    "TrajectoryRecord": "(state: 'SliderState', impulses: 'ContactImpulse', ecp: 'Ecp', applied: 'AppliedImpulse', diagnostics: 'StepDiagnostics') -> None",
    "TranslationStep": "(p_t: 'float', p_o: 'float', sigma: 'float', v_next: 'tuple[float, float]', rest: 'bool') -> None",
}


def _examples() -> dict:
    params = SliderParams(m=0.5, I_z=5e-4, q_z=0.08, g=9.8, patch=SQUARE)
    friction = FrictionParams(mu=0.31, e_t=1.0, e_o=1.2, e_r=0.01)
    state = SliderState(q_x=0.1, q_y=-0.2, theta_z=0.3, v_x=0.7, v_y=0.9, w_z=10.0, t=0.5)
    state1 = dataclasses.replace(state, t=0.51)
    applied = AppliedImpulse(p_x=0.01, p_ztau=-2e-4)
    impulse = patchslide.ContactImpulse(p_t=-0.006, p_o=-0.013, p_r=-1.4e-5, sigma=1.09, p_n=0.049)
    point = patchslide.Ecp(a_x=0.1, a_y=-0.19, in_hull=True, in_patch=False)
    diag = patchslide.StepDiagnostics(newton_iters=3, residual_norm=1e-17, rest_flag=False, wall_time=2e-5)
    return {
        "AnnulusPatch": AnnulusPatch(r_in=0.01, r_out=0.03),
        "AppliedImpulse": applied,
        "AppliedWrench": AppliedWrench(lambda_x=1.5, lambda_ztau=-0.2),
        "BodyPusherSchedule": BodyPusherSchedule(
            point_body=(-0.025, 0.0, 0.01), direction_body=(1.0, 0.0),
            force_mean=2.2, force_amp=2.0, period=0.1,
        ),
        "ConstantSchedule": ConstantSchedule(AppliedWrench(lambda_y=0.4)),
        "ContactImpulse": impulse,
        "DiskPatch": DiskPatch(r=0.05),
        "Ecp": point,
        "FrictionEstimate": patchslide.FrictionEstimate(
            et2mu=0.31, ratio_o=1.44, ratio_r=1e-4, per_step=((0.31, 1.44, 1e-4),),
            dispersion=(0.0, 0.0, 0.0), n_skipped=2,
        ),
        "FrictionParams": friction,
        "KktReport": patchslide.KktReport(
            residual_norm=1e-17, ellipsoid_gap=0.0, sigma_identity_gap=1e-16, dissipation_optimality=True,
        ),
        "ObservedStep": patchslide.ObservedStep(state_u=state, state_u1=state1, applied=applied, p_n=0.049),
        "PolygonPatch": SQUARE,
        "QuasiStaticInput": patchslide.QuasiStaticInput(contact_point=(0.02, 0.0), contact_velocity=(0.0, 0.1)),
        "Reconstruction": patchslide.Reconstruction(p_t=-0.006, p_o=-0.013, p_r=-1e-5, v_t=0.6, v_o=0.8, v_r=9.9),
        "RunOptions": patchslide.RunOptions(sigma_min=1e-5, topple_policy="error", output_path="out.csv"),
        "Scenario": patchslide.resolve_scenario("example3"),
        "SliderParams": params,
        "SliderState": state,
        "SlipVelocity": patchslide.SlipVelocity(v_t=0.6, v_o=0.8, v_r=9.9),
        "SolveInfo": patchslide.SolveInfo(iters=3, residual_norm=1e-17, rest=False, starts=1),
        "StepDiagnostics": diag,
        "StepInputs": StepInputs(params=params, friction=friction, state=state, applied=applied, p_n=0.049),
        "TableSchedule": TableSchedule(times=(0.0, 0.2), wrenches=(AppliedWrench(), AppliedWrench(lambda_x=1.0))),
        "TrajectoryRecord": patchslide.TrajectoryRecord(
            state=state1, impulses=impulse, ecp=point, applied=applied, diagnostics=diag,
        ),
        "TranslationStep": patchslide.TranslationStep(p_t=-0.01, p_o=0.0, sigma=0.5, v_next=(0.48, 0.0), rest=False),
    }


@pytest.fixture(scope="module")
def examples():
    return _examples()


def test_every_exported_frozen_dataclass_is_covered(examples):
    exported = {
        name for name in dir(patchslide)
        if isinstance(getattr(patchslide, name), type) and dataclasses.is_dataclass(getattr(patchslide, name))
    }
    assert exported == set(SIGNATURES) == set(examples)
    for name in exported:
        assert getattr(patchslide, name).__dataclass_params__.frozen, name


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_value_type_is_slotted_and_frozen(examples, name):
    obj = examples[name]
    assert type(obj) is getattr(patchslide, name)
    assert not hasattr(obj, "__dict__")
    first = dataclasses.fields(obj)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, first, getattr(obj, first))
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.not_a_field = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(obj, first)



def _plain_dataclass(cls):
    # the frozen, slotted dataclass with cls's fields and defaults, and with
    # every method dataclass generates
    specs = [
        (f.name, f.type, dataclasses.field(default=f.default, init=f.init, repr=f.repr, compare=f.compare))
        for f in dataclasses.fields(cls)
    ]
    plain = dataclasses.make_dataclass(cls.__name__, specs, frozen=True, slots=True)
    plain.__qualname__ = cls.__qualname__
    return plain


def _unchecked(cls, values):
    # an instance of cls holding values, past its constructor's checks
    obj = object.__new__(cls)
    for f, value in zip([f for f in dataclasses.fields(cls) if f.init], values):
        cls.__dict__[f.name].__set__(obj, value)
    return obj


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_value_type_methods_match_a_plain_frozen_dataclass(examples, name):
    cls = getattr(patchslide, name)
    plain = _plain_dataclass(cls)
    args = _init_fields(examples[name])
    changed = args[:-1] + ["changed"]
    ours = [examples[name], cls(*args), _unchecked(cls, changed)]
    theirs = [plain(*args), plain(*args), plain(*changed)]
    for a, ref_a in zip(ours, theirs):
        assert repr(a) == repr(ref_a)
        assert hash(a) == hash(ref_a)
        assert a.__eq__(1) is NotImplemented and ref_a.__eq__(1) is NotImplemented
        for b, ref_b in zip(ours, theirs):
            assert (a == b) == (ref_a == ref_b)
            assert (a != b) == (ref_a != ref_b)
    assert ours[0] == ours[1] != ours[2]
    assert cls.__match_args__ == plain.__match_args__
    assert [f.name for f in dataclasses.fields(cls)] == [f.name for f in dataclasses.fields(plain)]
    p = cls.__dataclass_params__
    assert (p.init, p.repr, p.eq, p.order, p.unsafe_hash, p.frozen) == (False, True, True, False, False, True)


def test_value_type_repr_guards_recursion():
    @value_type
    class Box:
        """Holds anything, itself too."""

        item: object

    box = Box([])
    box.item.append(box)
    assert repr(box) == "test_value_type_repr_guards_recursion.<locals>.Box(item=[...])"


def test_value_type_rejects_constructor_fields_left_out_of_repr_eq_or_hash():
    # repr, eq and hash read one tuple of the constructor's fields
    for flags in ({"repr": False}, {"compare": False}, {"hash": False}):
        with pytest.raises(TypeError, match="every field as a plain argument"):
            @value_type
            class Partial:
                a: float = dataclasses.field(**flags)

@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_value_type_signature_is_unchanged(name):
    assert str(inspect.signature(getattr(patchslide, name))) == SIGNATURES[name]


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_value_type_round_trips(examples, name):
    obj = examples[name]
    pickled = [pickle.loads(pickle.dumps(obj, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for restored in (dataclasses.replace(obj), *pickled, copy(obj), deepcopy(obj)):
        assert type(restored) is type(obj)
        assert restored == obj
        assert hash(restored) == hash(obj)
        assert repr(restored) == repr(obj)


def _init_fields(obj, **changes) -> list:
    # obj's constructor arguments in field order, some of them changed
    return [changes.get(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj) if f.init]


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_builder_gives_what_the_class_call_gives(examples, name):
    cls = getattr(patchslide, name)
    args = _init_fields(examples[name])
    # one compiled function is both the class call's __new__ and _new
    assert "__init__" not in vars(cls) and cls._new.__func__ is cls.__new__
    want = cls(*args)
    got = cls._new(*args)
    assert type(got) is cls
    assert not hasattr(got, "__dict__")
    assert got == want
    assert hash(got) == hash(want)
    assert repr(got) == repr(want)
    # derived fields too, which equality and repr leave out
    for f in dataclasses.fields(cls):
        assert getattr(got, f.name) == getattr(want, f.name), f.name
    restored = pickle.loads(pickle.dumps(got))
    assert type(restored) is cls and restored == want
    first = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(got, first, getattr(got, first))
    with pytest.raises(dataclasses.FrozenInstanceError):
        got.not_a_field = 1.0


def _value_parts(rec) -> list:
    # a record and each value object it holds
    return [rec, *(getattr(rec, f.name) for f in dataclasses.fields(rec))]


def _rebuilt(rec):
    # the record as class calls build it from its parts' field values
    return type(rec)(*(type(part)(*_init_fields(part)) for part in _value_parts(rec)[1:]))


def test_record_builder_gives_what_the_class_calls_give(examples):
    # the stepping loop builds each record and its state, impulse, ECP and
    # diagnostics in one call, from their floats and the shared applied
    # impulse
    from patchslide.stepper import TrajectoryRecord, _record_builder

    rec = examples["TrajectoryRecord"]
    args = []
    for f in dataclasses.fields(TrajectoryRecord):
        part = getattr(rec, f.name)
        args += [part] if f.name == "applied" else _init_fields(part)
    got = _record_builder()(*args)
    want = _rebuilt(rec)
    assert got.applied is rec.applied
    for got_part, want_part in zip(_value_parts(got), _value_parts(want), strict=True):
        cls = type(want_part)
        assert type(got_part) is cls
        assert not hasattr(got_part, "__dict__")
        assert got_part == want_part
        assert hash(got_part) == hash(want_part)
        assert repr(got_part) == repr(want_part)
        restored = pickle.loads(pickle.dumps(got_part))
        assert type(restored) is cls and restored == want_part
        first = dataclasses.fields(cls)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(got_part, first, getattr(got_part, first))
        with pytest.raises(dataclasses.FrozenInstanceError):
            got_part.not_a_field = 1.0


def test_every_simulated_record_is_what_the_class_calls_give(ex1_records, ex2_records, ex3_records):
    from patchslide import resolve_scenario, simulate

    # a pure translation, which ends at an exact rest step
    ex1 = resolve_scenario("example1")
    translated = simulate(dataclasses.replace(ex1, initial=dataclasses.replace(ex1.initial, w_z=0.0)))
    for records in (ex1_records, ex2_records, ex3_records, translated):
        assert records
        for rec in records:
            want = _rebuilt(rec)
            assert rec == want and hash(rec) == hash(want) and repr(rec) == repr(want)
            assert [type(part) for part in _value_parts(rec)] == [type(part) for part in _value_parts(want)]


def _invalid_fields(ex) -> dict:
    # for each type with checks, constructor arguments that fail them
    return {
        "AnnulusPatch": _init_fields(ex["AnnulusPatch"], r_in=math.nan),
        "BodyPusherSchedule": _init_fields(ex["BodyPusherSchedule"], period=0.0),
        "ConstantSchedule": _init_fields(ex["ConstantSchedule"], wrench=AppliedWrench(lambda_x=math.inf)),
        "DiskPatch": _init_fields(ex["DiskPatch"], r=-1.0),
        "FrictionParams": _init_fields(ex["FrictionParams"], e_r=1e-170),
        "ObservedStep": _init_fields(ex["ObservedStep"], p_n=0.0),
        "PolygonPatch": _init_fields(ex["PolygonPatch"], vertices=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))),
        "QuasiStaticInput": _init_fields(ex["QuasiStaticInput"], c=-1.0),
        "RunOptions": _init_fields(ex["RunOptions"], sigma_min=math.nan),
        "Scenario": _init_fields(ex["Scenario"], h=0.0),
        "SliderParams": _init_fields(ex["SliderParams"], m=-0.5),
        "StepInputs": _init_fields(ex["StepInputs"], p_n=0.0),
        "TableSchedule": _init_fields(ex["TableSchedule"], times=(0.2, 0.0)),
    }


def test_builder_runs_the_constructor_checks(examples):
    invalid = _invalid_fields(examples)
    assert set(invalid) == {name for name in SIGNATURES if hasattr(getattr(patchslide, name), "__post_init__")}
    for name, args in invalid.items():
        cls = getattr(patchslide, name)
        with pytest.raises(ValidationError) as by_call:
            cls(*args)
        with pytest.raises(ValidationError) as by_builder:
            cls._new(*args)
        assert type(by_builder.value) is type(by_call.value), name
        assert str(by_builder.value) == str(by_call.value), name


def test_unpickling_runs_the_constructor_checks():
    # pickle.loads, copy and deepcopy restore a value type through the class
    # call, which runs __post_init__: a patch whose hull is a segment and an
    # edited pickle are both rejected
    verts = ((0.11288584381185873, -0.15283142922987214),
             (0.5617714068014281, -0.3342143955494309),
             (0.5893117124160843, -0.3453427158555344))
    with pytest.raises(ValidationError, match="zero area"):
        PolygonPatch(verts)
    thin = _unchecked(PolygonPatch, [verts])
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        with pytest.raises(ValidationError, match="zero area"):
            pickle.loads(pickle.dumps(thin, protocol))
    for restore in (copy, deepcopy):
        with pytest.raises(ValidationError, match="zero area"):
            restore(thin)
    good = pickle.dumps(SliderParams(m=1.5, I_z=5e-4, q_z=0.08, g=9.8, patch=SQUARE))
    assert good.count(struct.pack(">d", 1.5)) == 1
    edited = good.replace(struct.pack(">d", 1.5), struct.pack(">d", -1.5))
    with pytest.raises(ValidationError, match="mass must be positive"):
        pickle.loads(edited)


def test_value_type_replace_changes_one_field(examples):
    s = examples["SliderState"]
    moved = dataclasses.replace(s, q_x=2.0)
    assert moved.q_x == 2.0
    assert moved != s
    assert dataclasses.replace(moved, q_x=s.q_x) == s


def test_value_type_defaults_and_keywords():
    assert AppliedWrench() == AppliedWrench(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert AppliedImpulse(p_ztau=1.0).p_ztau == 1.0
    assert patchslide.StepDiagnostics(1, 0.0, True).wall_time == 0.0
    with pytest.raises(TypeError):
        SliderState(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(TypeError):
        DiskPatch(r=0.1, radius=0.1)


def test_value_type_post_init_still_validates(examples):
    inp = examples["StepInputs"]
    with pytest.raises(ValidationError, match="normal impulse must be positive"):
        dataclasses.replace(inp, p_n=0.0)
    obs = examples["ObservedStep"]
    with pytest.raises(ValidationError, match="observed step must advance time"):
        dataclasses.replace(obs, state_u1=obs.state_u)
    with pytest.raises(ValidationError, match="zero area"):
        PolygonPatch(((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)))


def test_scenario_without_options_gets_a_fresh_default(examples):
    base = examples["Scenario"]
    args = (base.params, base.friction, base.initial, base.schedule, base.h, base.duration)
    a = patchslide.Scenario(*args)
    b = patchslide.Scenario(*args)
    assert a.options == patchslide.RunOptions()
    assert a == b


def test_value_type_rejects_default_factories():
    with pytest.raises(TypeError, match="not a default factory"):
        @value_type
        class Made:
            a: float
            b: tuple = dataclasses.field(default_factory=tuple)


def test_value_type_rejects_fields_outside_the_constructor():
    with pytest.raises(TypeError, match="every field as a plain argument"):
        @value_type
        class Hidden:
            a: float
            b: float = dataclasses.field(default=0.0, init=False)
    # a field outside the constructor must stay out of equality and repr
    for flags in ({"repr": False}, {"compare": False}):
        with pytest.raises(TypeError, match="every field as a plain argument"):
            @value_type
            class Shown:
                a: float
                b: float = dataclasses.field(init=False, **flags)


L_VERTICES = ((0.0, 0.0), (0.02, 0.0), (0.02, 0.01), (0.01, 0.01), (0.01, 0.02), (0.0, 0.02))


def _derived(patch):
    return (patch.hull_edges, patch.convex)


def test_polygon_patch_derives_its_hull_from_its_vertices():
    from patchslide.geometry import convex_edges, convex_hull

    l_shape = PolygonPatch(L_VERTICES)
    assert _derived(l_shape) == (convex_edges(convex_hull(list(L_VERTICES))), False)
    assert _derived(SQUARE) == (convex_edges(convex_hull(list(SQUARE.vertices))), True)
    # equal patches stay equal, hash alike and print alike; the derived
    # fields are in none of the three
    twin = PolygonPatch(L_VERTICES)
    assert twin == l_shape and hash(twin) == hash(l_shape) and _derived(twin) == _derived(l_shape)
    assert repr(l_shape) == f"PolygonPatch(vertices={L_VERTICES!r})"
    assert l_shape.__reduce__() == (PolygonPatch, (L_VERTICES,))
    with pytest.raises(dataclasses.FrozenInstanceError):
        l_shape.convex = True


def test_polygon_patch_restores_recompute_the_derived_fields():
    l_shape = PolygonPatch(L_VERTICES)
    restored = [
        *(pickle.loads(pickle.dumps(l_shape, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
        copy(l_shape),
        deepcopy(l_shape),
        dataclasses.replace(l_shape),
    ]
    for patch in restored:
        assert patch == l_shape and _derived(patch) == _derived(l_shape)
    moved = dataclasses.replace(l_shape, vertices=SQUARE.vertices)
    assert moved == SQUARE and _derived(moved) == _derived(SQUARE)
    with pytest.raises(ValueError):
        dataclasses.replace(l_shape, convex=True)
