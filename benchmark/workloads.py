"""Seeded workload inputs for the benchmark.

Every workload is built from its seed alone.  Parameters are drawn by
Latin hypercube sampling (each parameter's range is cut into as many
strata as there are runs, and every stratum is hit once; the sweep uses a
low-discrepancy sequence instead), so two seeds give different inputs
whose distributions match closely; the metrics then vary little from seed
to seed without any input being chosen or dropped.

Each scenario is built from a bundled example with the seeded parameters
swapped in, rendered with ``serialize_scenario`` and parsed back with
``loads_scenario``: loading scenarios is part of set-up, as it is for a
user of the command line.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

# Runs per workload: full size, and the smoke size used by the harness test.
SIZES = {
    "spin": (120, 8),
    "push": (100, 6),
    "sweep": (200, 12),
    "identify": (100, 8),
}

# Share of spin runs at h = 1e-3 (the rest use h = 1e-2).  Kept away from
# one half so that the median run sits inside one step-length group
# instead of on the jump between the two.
SPIN_FINE_SHARE = 0.25
# Share of identify logs that come from the push family (the rest are
# spin-downs), again kept away from one half for the median's sake.
IDENTIFY_PUSH_SHARE = 0.6
SWEEP_STEPS = 20
# mixed into each workload's seed so that workloads sharing a family differ
_WORKLOAD_IDS = {"spin": 1, "push": 2, "sweep": 3, "identify": 4}
GRAVITY = 9.8


@dataclass(frozen=True)
class Log:
    """One identify input: a simulated trajectory, the slider's mass
    properties, and the friction triple (e_t*mu, (e_o/e_t)^2, (e_r/e_t)^2)
    that generated it."""

    records: list
    mass: tuple[float, float, float]
    truth: tuple[float, float, float]


def _lhs(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """n points in [0, 1)^dims, one per stratum along every axis."""
    u = np.empty((n, dims))
    for d in range(dims):
        u[:, d] = (rng.permutation(n) + rng.random(n)) / n
    return u


def _lin(u: float, lo: float, hi: float) -> float:
    return float(lo + u * (hi - lo))


def _log(u: float, lo: float, hi: float) -> float:
    return float(10.0 ** (math.log10(lo) + u * (math.log10(hi) - math.log10(lo))))


def _load(ps, scen):
    return ps.loads_scenario(ps.serialize_scenario(scen))


def _square(half: float) -> tuple:
    return ((-half, -half), (half, -half), (half, half), (-half, half))


def _spin_scenarios(ps, rng, n):
    """Unforced spin-downs of square sliders (example1 family), run to rest.
    Each step length gets its own hypercube, so both groups are stratified."""
    base = ps.resolve_scenario("example1")
    n_fine = int(round(SPIN_FINE_SHARE * n))
    out = []
    for h, count in ((1e-3, n_fine), (1e-2, n - n_fine)):
        u = _lhs(rng, count, 5)
        for i in range(count):
            half = _lin(u[i, 0], 0.02, 0.035)
            m = _lin(u[i, 1], 0.3, 1.5)
            speed = _lin(u[i, 2], 0.3, 0.5)
            heading = _lin(u[i, 3], -math.pi, math.pi)
            params = replace(
                base.params,
                m=m,
                I_z=m * (2.0 * half) ** 2 / 6.0,
                patch=ps.PolygonPatch(vertices=_square(half)),
            )
            initial = replace(
                base.initial,
                v_x=speed * math.cos(heading),
                v_y=speed * math.sin(heading),
                w_z=_lin(u[i, 4], -6.0, 6.0),
            )
            # long enough for every drawn speed to reach rest
            out.append(replace(base, params=params, initial=initial, h=h, duration=2.0))
    return out


def _push_scenarios(ps, rng, n):
    """Pulsing body pusher on square sliders (example3 family)."""
    base = ps.resolve_scenario("example3")
    u = _lhs(rng, n, 7)
    out = []
    for i in range(n):
        half = _lin(u[i, 0], 0.02, 0.035)
        m = 0.5
        params = replace(
            base.params,
            I_z=m * (2.0 * half) ** 2 / 6.0,
            patch=ps.PolygonPatch(vertices=_square(half)),
        )
        schedule = replace(
            base.schedule,
            point_body=(-half, _lin(u[i, 1], -0.4, 0.4) * half, 0.0),
            force_mean=_lin(u[i, 2], 2.0, 3.0),
            force_amp=_lin(u[i, 3], 1.0, 2.0),
            period=_lin(u[i, 4], 0.05, 0.2),
        )
        initial = replace(base.initial, v_x=_lin(u[i, 5], 0.1, 0.4), v_y=0.3)
        duration = round(_lin(u[i, 6], 1.0, 1.4), 2)
        out.append(replace(base, params=params, schedule=schedule, initial=initial, duration=duration))
    return out


def _rseq(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """n points of the additive recurrence u_i = frac(shift + i * alpha)
    (Roberts' R_d sequence), shifted at random: spread evenly over the
    joint space of all dims, not only along each axis."""
    g = 2.0
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (dims + 1))
    alpha = (1.0 / g) ** np.arange(1, dims + 1)
    return (rng.random(dims) + np.arange(1, n + 1)[:, None] * alpha) % 1.0


def _sweep_scenarios(ps, rng, n):
    """Short runs on a disk patch across the valid input space: mass
    1e-2..1e2 kg, h 1e-4..1e-2, e_r 1e-5..1e-1, and a constant in-plane
    load from 0 to twice the friction bound.  Whether a run needs restarts
    or fails depends on several axes jointly, so the points come from a
    low-discrepancy sequence that covers their joint space evenly.  No
    input is filtered."""
    base = ps.resolve_scenario("example1")
    u = _rseq(rng, n, 11)
    out = []
    for i in range(n):
        m = _log(u[i, 0], 1e-2, 1e2)
        h = _log(u[i, 1], 1e-4, 1e-2)
        e_r = _log(u[i, 2], 1e-5, 1e-1)
        mu = _lin(u[i, 3], 0.1, 1.0)
        load = _lin(u[i, 4], 0.0, 2.0) * mu * m * GRAVITY
        load_dir = _lin(u[i, 5], -math.pi, math.pi)
        speed = _lin(u[i, 6], 0.05, 2.0)
        heading = _lin(u[i, 7], -math.pi, math.pi)
        r = 0.05
        params = ps.SliderParams(
            m=m, I_z=m * r * r / 2.0, q_z=_lin(u[i, 8], 0.0, 0.1), g=GRAVITY, patch=ps.DiskPatch(r=r)
        )
        friction = ps.FrictionParams(mu=mu, e_t=1.0, e_o=_lin(u[i, 9], 0.5, 2.0), e_r=e_r)
        initial = replace(
            base.initial,
            v_x=speed * math.cos(heading),
            v_y=speed * math.sin(heading),
            w_z=_lin(u[i, 10], -20.0, 20.0),
        )
        schedule = ps.ConstantSchedule(
            ps.AppliedWrench(lambda_x=load * math.cos(load_dir), lambda_y=load * math.sin(load_dir))
        )
        out.append(replace(
            base, params=params, friction=friction, initial=initial, schedule=schedule,
            h=h, duration=SWEEP_STEPS * h,
        ))
    return out


def build_scenarios(ps, workload: str, seed: int, n: int, between) -> list:
    """Loaded scenarios for a simulating workload, one per run.  between()
    is called after each load."""
    rng = np.random.default_rng([seed, _WORKLOAD_IDS[workload]])
    make = {"spin": _spin_scenarios, "push": _push_scenarios, "sweep": _sweep_scenarios}[workload]
    out = []
    for scen in make(ps, rng, n):
        out.append(_load(ps, scen))
        between()
    return out


def build_logs(ps, seed: int, n: int, between) -> tuple[list[Log], list[tuple[float, float]]]:
    """Simulated spin and push trajectories for the identify workload, with
    the simulate wall time of each and the time it ended.  between() is
    called after each log."""
    rng = np.random.default_rng([seed, _WORKLOAD_IDS["identify"]])
    n_push = int(round(IDENTIFY_PUSH_SHARE * n))
    # identify reads spin-downs at the coarse step only, so that every log
    # has tens of rows rather than hundreds
    spins = [replace(s, h=1e-2) for s in _spin_scenarios(ps, rng, n - n_push)]
    pushes = _push_scenarios(ps, rng, n_push)
    logs = []
    sim = []
    for scen in spins + pushes:
        scen = _load(ps, scen)
        t0 = time.perf_counter()
        records = ps.simulate(scen)
        t1 = time.perf_counter()
        sim.append((t1 - t0, t1))
        f = scen.friction
        p = scen.params
        truth = (f.e_t * f.mu, (f.e_o / f.e_t) ** 2, (f.e_r / f.e_t) ** 2)
        logs.append(Log(records=records, mass=(p.m, p.I_z, p.q_z), truth=truth))
        between()
    return logs, sim
