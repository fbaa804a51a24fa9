"""Shared fixtures: bundled scenarios, their simulated trajectories, and a
seeded generator of randomized per-step solver inputs."""

import re
import sys

import numpy as np
import pytest

from patchslide import (
    AppliedImpulse,
    DiskPatch,
    FrictionParams,
    SliderParams,
    SliderState,
    StepInputs,
    resolve_scenario,
    simulate,
    solve_step_info,
)
import patchslide.stepper as stepper_module
from patchslide.errors import PatchSlideError, ToppleRiskError


@pytest.fixture(scope="session")
def ex1_scenario():
    return resolve_scenario("example1")


@pytest.fixture(scope="session")
def ex2_scenario():
    return resolve_scenario("example2")


@pytest.fixture(scope="session")
def ex3_scenario():
    return resolve_scenario("example3")


@pytest.fixture(scope="session")
def ex1_records(ex1_scenario):
    return simulate(ex1_scenario)


@pytest.fixture(scope="session")
def ex2_records(ex2_scenario):
    return simulate(ex2_scenario)


@pytest.fixture(scope="session")
def ex3_records(ex3_scenario):
    return simulate(ex3_scenario)


def _draw_inputs(rng: np.random.Generator) -> StepInputs:
    m = rng.uniform(0.1, 2.0)
    g = 9.8
    h = 0.01
    params = SliderParams(
        m=m,
        I_z=rng.uniform(1e-4, 1e-2),
        q_z=rng.uniform(0.0, 0.1),
        g=g,
        patch=DiskPatch(r=0.1),
    )
    friction = FrictionParams(
        mu=rng.uniform(0.1, 1.0),
        e_t=rng.uniform(0.5, 2.0),
        e_o=rng.uniform(0.5, 2.0),
        e_r=rng.uniform(0.005, 0.05),
    )
    state = SliderState(
        q_x=rng.uniform(-1, 1),
        q_y=rng.uniform(-1, 1),
        theta_z=rng.uniform(-3, 3),
        v_x=rng.uniform(-2, 2),
        v_y=rng.uniform(-2, 2),
        w_z=rng.uniform(-15, 15),
        t=0.0,
    )
    p_n = h * m * g
    scale = friction.mu * p_n
    applied = AppliedImpulse(
        p_x=rng.uniform(-2, 2) * scale,
        p_y=rng.uniform(-2, 2) * scale,
        p_xtau=rng.uniform(-0.05, 0.05) * scale,
        p_ytau=rng.uniform(-0.05, 0.05) * scale,
        p_ztau=rng.uniform(-0.05, 0.05) * scale,
    )
    return StepInputs(params=params, friction=friction, state=state, applied=applied, p_n=p_n)


def make_sliding_inputs(seed: int, n: int) -> list[StepInputs]:
    """n randomized step inputs for which friction cannot stop the slider
    within the step, so a sliding solution with sigma > 0 exists."""
    rng = np.random.default_rng(seed)
    out: list[StepInputs] = []
    while len(out) < n:
        inp = _draw_inputs(rng)
        if not solve_step_info(inp)[1].rest:
            out.append(inp)
    return out


@pytest.fixture
def sliding_inputs_factory():
    return make_sliding_inputs


# ------------------------------------------------------- step by step

def record_lines(records) -> list[str]:
    """Each record's state, contact impulse, ECP and applied impulse, its
    iterations, residual norm bits and rest flag: everything but its wall
    time, as tests/test_golden.py hashes it."""
    return [
        f"{(r.state, r.impulses, r.ecp, r.applied)!r}|{r.diagnostics.newton_iters}|"
        f"{r.diagnostics.residual_norm.hex()}|{r.diagnostics.rest_flag}"
        for r in records
    ]


def simulate_by_steps(scen) -> list:
    """simulate(scen) as a loop of public step calls, each given the
    warm_sigma of the last five slip speeds: every step computes its load
    and the solve's constants afresh, where simulate computes them once per
    run.  It stops, prefixes errors and applies topple_policy "error" as
    simulate does, and emits no warning."""
    records = []
    state = scen.initial
    history = [0.0] * 5
    for k in range(int(round(scen.duration / scen.h))):
        try:
            rec = stepper_module.step(state, scen, stepper_module.warm_sigma(*history))
        except PatchSlideError as e:
            raise type(e)(f"step {k}: {e}") from e
        records.append(rec)
        if not rec.ecp.in_hull and scen.options.topple_policy == "error":
            raise ToppleRiskError(f"step {k}: equivalent contact point left the support hull")
        if rec.diagnostics.rest_flag:
            break
        state = rec.state
        history = [rec.impulses.sigma] + history[:4]
    return records


# --------------------------------------------------------- acceptance report

_ACCEPTANCE_LINES: dict[int, str] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or "test_acceptance" not in item.nodeid:
        return
    match = re.match(r"test_criterion_(\d+)", item.name)
    if match is None:
        return
    n = int(match.group(1))
    details = getattr(sys.modules.get("test_acceptance"), "DETAILS", {})
    status = "PASS" if report.passed else "FAIL"
    detail = details.get(n, "")
    _ACCEPTANCE_LINES[n] = f"ACCEPTANCE {n}: {status}" + (f" — {detail}" if detail else "")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(_ACCEPTANCE_LINES[n])
