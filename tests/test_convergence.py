"""First order in the step length h: the model is a backward-Euler
discretisation, so halving h halves the error of a run at a fixed time.
Runs at h0, h0/2, h0/4, ... self-converge: the difference between
successive runs' end poses falls by a factor tending to 2.  And a run
converges at every step length down to where (mu*p_n)^2 leaves the
normal doubles."""

import dataclasses
import warnings
from itertools import islice

import pytest

from patchslide import BodyPusherSchedule, ConstantSchedule, resolve_scenario, simulate
from patchslide.errors import ValidationError

from test_fuzz import fuzz_scenarios

# the ratio of successive differences; at this commit the examples give
# 2.000-2.030 and the fuzz runs below 1.993-2.000.  A second-order change
# would give about 4, a scheme that stopped converging about 1
RATIO_BAND = (1.95, 2.10)


def _end_pose(scen, h):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # topple_policy "warn"
        records = simulate(dataclasses.replace(scen, h=h))
    # every run slides to the fixed end time
    assert len(records) == round(scen.duration / h)
    assert not records[-1].diagnostics.rest_flag
    s = records[-1].state
    return s.q_x, s.q_y, s.theta_z


def _ratios(scen, levels: int) -> list[float]:
    poses = [_end_pose(scen, scen.h / 2 ** k) for k in range(levels)]
    diffs = [max(abs(a - b) for a, b in zip(p, q)) for p, q in zip(poses, poses[1:])]
    return [d / e for d, e in zip(diffs, diffs[1:])]


def _in_band(ratios) -> bool:
    lo, hi = RATIO_BAND
    return all(lo <= r <= hi for r in ratios)


@pytest.mark.parametrize("name, end", [("example1", 0.2), ("example2", 0.3), ("example3", 0.5)])
def test_bundled_examples_converge_at_first_order(name, end):
    # h from 0.01 down to 1.5625e-4, mid-run (example2 rests at 0.56)
    scen = dataclasses.replace(resolve_scenario(name), h=0.01, duration=end)
    ratios = _ratios(scen, 7)
    assert _in_band(ratios), ratios


def _smooth_load_fuzz_scenarios(n: int):
    # the first n fuzz scenarios under a constant load or a body pusher.  A
    # table's step function is sampled at the step starts, so where its
    # times fall between grid points the error is still O(h) but its
    # ratios scatter with the grid's alignment
    smooth = (scen for _, _, scen in fuzz_scenarios()
              if isinstance(scen.schedule, (ConstantSchedule, BodyPusherSchedule)))
    return list(islice(smooth, n))


@pytest.mark.parametrize("scen", _smooth_load_fuzz_scenarios(6), ids=[f"fuzz{i}" for i in range(6)])
def test_fuzz_scenarios_converge_at_first_order(scen):
    # each from its own h over its own 1 to 30 steps, down to h/32
    ratios = _ratios(scen, 6)
    assert _in_band(ratios), ratios


def test_rest_time_converges_at_first_order():
    # example2 comes to rest at about 0.56 s; its rest time at h from 0.005
    # down to 7.8e-5 moves by h/2 from each level to the next
    scen = resolve_scenario("example2")
    rest_times = []
    for k in range(7):
        records = simulate(dataclasses.replace(scen, h=0.005 / 2 ** k, duration=2.0))
        assert records[-1].diagnostics.rest_flag
        rest_times.append(records[-1].state.t)
    diffs = [b - a for a, b in zip(rest_times, rest_times[1:])]
    ratios = [d / e for d, e in zip(diffs, diffs[1:])]
    assert _in_band(ratios), (rest_times, ratios)


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_every_step_length_down_to_1e_150_converges(name):
    # up to 200 steps at h = 0.1 and 1e-10, 1e-20, ..., 1e-150: no step
    # raises NoConvergenceError, and none takes more than the 6 iterations
    # measured at this commit (example3 at h = 0.1; 3 or fewer below 1e-10).
    # At 1e-160, p_n = h*m*g leaves (mu*p_n)^2 below the normal doubles
    base = resolve_scenario(name)
    worst = 0
    for h in [0.1] + [10.0 ** -k for k in range(10, 151, 10)]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # topple_policy "warn"
            records = simulate(dataclasses.replace(base, h=h, duration=200 * h))
        worst = max(worst, max(r.diagnostics.newton_iters for r in records))
    assert worst <= 6
    with pytest.raises(ValidationError, match=r"^step 0: .*\(mu\*p_n\)\^2 is not a normal double"):
        simulate(dataclasses.replace(base, h=1e-160, duration=200e-160))
