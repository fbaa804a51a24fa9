"""Seeded scenario fuzz: scenarios drawn across the valid input space go
through serialize_scenario -> loads_scenario -> simulate back to back in
one process.  Every outcome is a run or a documented PatchSlideError, and
a rerun as a loop of single steps, each computing its load and the solve's
constants afresh, gives the same outcome, so nothing leaks from one run,
or one step, into the next."""

import math
import warnings
from collections import Counter

import numpy as np

from patchslide import (
    AnnulusPatch,
    AppliedWrench,
    BodyPusherSchedule,
    ConstantSchedule,
    DiskPatch,
    FrictionParams,
    PatchSlideError,
    PolygonPatch,
    RunOptions,
    Scenario,
    SliderParams,
    SliderState,
    TableSchedule,
    loads_scenario,
    serialize_scenario,
    simulate,
)

from conftest import record_lines, simulate_by_steps

RUNS = 300
GRAVITY = 9.8


def _log(rng, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _patch(rng, kind: str, size: float):
    if kind == "disk":
        return DiskPatch(r=size)
    if kind == "annulus":
        return AnnulusPatch(r_in=size * rng.uniform(0.0, 0.9), r_out=size)
    # a convex polygon of 3 to 8 vertices on a circle, or an L shape
    n = int(rng.integers(3, 10))
    if n == 9:
        a = size
        return PolygonPatch(((-a, -a), (a, -a), (a, 0.0), (0.0, 0.0), (0.0, a), (-a, a)))
    # angles at least 0.1 apart and within one turn
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi - 0.1 * n, n)) + 0.1 * np.arange(n)
    return PolygonPatch(tuple((size * math.cos(t), size * math.sin(t)) for t in angles))


def _wrench(rng, bound: float, weight: float) -> AppliedWrench:
    # in-plane load up to twice the friction bound; a vertical load that
    # now and then lifts the slider off the plane (ContactLossError)
    load = rng.uniform(0.0, 2.0) * bound
    phi = rng.uniform(-math.pi, math.pi)
    return AppliedWrench(
        lambda_x=load * math.cos(phi), lambda_y=load * math.sin(phi),
        lambda_z=rng.uniform(-0.5, 1.05) * weight,
        lambda_xtau=rng.uniform(-0.01, 0.01) * bound, lambda_ytau=rng.uniform(-0.01, 0.01) * bound,
        lambda_ztau=rng.uniform(-0.01, 0.01) * bound,
    )


def _scenario(rng, patch_kind: str, load_kind: str) -> Scenario:
    m = _log(rng, 1e-2, 1e2)
    h = _log(rng, 1e-4, 1e-2)
    size = rng.uniform(0.01, 0.1)
    params = SliderParams(m=m, I_z=m * size ** 2 * rng.uniform(0.2, 1.0), q_z=rng.uniform(0.0, 0.1),
                          g=GRAVITY, patch=_patch(rng, patch_kind, size))
    friction = FrictionParams(mu=rng.uniform(0.1, 1.0), e_t=rng.uniform(0.5, 2.0),
                              e_o=rng.uniform(0.5, 2.0), e_r=_log(rng, 1e-5, 1e-1))
    bound = friction.mu * m * GRAVITY
    if load_kind == "constant":
        schedule = ConstantSchedule(_wrench(rng, bound, m * GRAVITY))
    elif load_kind == "table":
        n = int(rng.integers(1, 5))
        times = tuple(sorted(float(t) for t in rng.uniform(-5.0 * h, 25.0 * h, n)))
        schedule = TableSchedule(times, tuple(_wrench(rng, bound, m * GRAVITY) for _ in times))
    else:
        phi = rng.uniform(-math.pi, math.pi)
        schedule = BodyPusherSchedule(
            point_body=(rng.uniform(-size, size), rng.uniform(-size, size), rng.uniform(0.0, 0.05)),
            direction_body=(math.cos(phi), math.sin(phi)),
            force_mean=rng.uniform(0.0, 2.0) * bound, force_amp=rng.uniform(0.0, 1.0) * bound,
            period=_log(rng, 3.0 * h, 100.0 * h),
        )
    speed = _log(rng, 1e-3, 2.0)
    heading = rng.uniform(-math.pi, math.pi)
    initial = SliderState(q_x=rng.uniform(-1.0, 1.0), q_y=rng.uniform(-1.0, 1.0),
                          theta_z=rng.uniform(-math.pi, math.pi),
                          v_x=speed * math.cos(heading), v_y=speed * math.sin(heading),
                          w_z=math.copysign(_log(rng, 1e-3, 30.0), rng.uniform(-1.0, 1.0)), t=0.0)
    policy = "error" if rng.uniform() < 0.2 else "warn"
    return Scenario(params=params, friction=friction, initial=initial, schedule=schedule,
                    h=h, duration=int(rng.integers(1, 31)) * h, options=RunOptions(topple_policy=policy))


def _outcome(run, scen):
    # the records, or the documented error; anything else propagates
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            return record_lines(run(scen))
    except PatchSlideError as e:
        return f"{type(e).__name__}: {e}"


def test_seeded_scenario_fuzz_round_trips_and_reruns_identically():
    rng = np.random.default_rng(43)
    kinds = Counter()
    outcomes = Counter()
    for _ in range(RUNS):
        patch_kind = ("polygon", "disk", "annulus")[int(rng.integers(3))]
        load_kind = ("constant", "table", "pusher")[int(rng.integers(3))]
        scen = loads_scenario(serialize_scenario(_scenario(rng, patch_kind, load_kind)))
        got = _outcome(simulate, scen)
        assert got == _outcome(simulate_by_steps, scen)
        kinds[patch_kind, load_kind] += 1
        outcomes["run" if isinstance(got, list) else got.split(":")[0]] += 1
    # every patch with every load, and mostly runs that complete
    assert len(kinds) == 9
    assert outcomes["run"] >= 0.6 * RUNS, outcomes
    assert set(outcomes) <= {"run", "ContactLossError", "ToppleRiskError"}, outcomes
