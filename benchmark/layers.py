"""Which program functions a traced run wraps, and the per-layer metrics
derived from their spans.

Each target is a name that callers resolve at call time: the package's
public functions for the harness's own calls, and the stepper module's
globals for the calls ``simulate`` and ``step`` make.
"""

from __future__ import annotations

import numpy as np

from tracing import layer_stats

PER_LAYER = {
    "solver.solve_us": "us",
    "solver.solve_us_p95": "us",
    "solver.newton_iters_mean": "count",
    "solver.starts_mean": "count",
    "solver.restart_frac": "frac",
    "solver.fail_frac": "frac",
    "stepper.step_us": "us",
    "stepper.self_us": "us",
    "stepper.ecp_us": "us",
    "stepper.ecp_calls_per_step": "count",
    "geometry.validate_patch_us": "us",
    "geometry.validate_patch_calls_per_step": "count",
    "geometry.convex_hull_us": "us",
    "geometry.convex_hull_calls_per_step": "count",
    "core.assemble_us": "us",
    "scenario.load_us": "us",
    "trajectory.write_us_per_row": "us",
    "trajectory.read_us_per_row": "us",
    "trajectory.pair_us_per_row": "us",
    "sysid.estimate_us_per_row": "us",
    "sysid.skipped_frac": "frac",
    "trace.overhead_frac": "frac",
}


def _solve_info(args, result):
    info = result[1]
    return (info.iters, info.starts)


def trace_targets(ps):
    st = ps.stepper
    return [
        (ps, "simulate", "stepper.simulate", None),
        (st, "step", "stepper.step", None),
        (st, "assemble_inputs", "core.assemble_inputs", None),
        (st, "solve_step_info", "solver.solve_step_info", _solve_info),
        (st, "ecp", "stepper.ecp", None),
        (st, "validate_patch", "geometry.validate_patch", None),
        (st, "convex_hull", "geometry.convex_hull", None),
        (ps, "loads_scenario", "scenario.loads_scenario", None),
        (ps, "write_trajectory", "trajectory.write_trajectory", lambda a, r: len(a[0])),
        (ps, "read_trajectory", "trajectory.read_trajectory", lambda a, r: len(r)),
        (ps, "observed_steps", "trajectory.observed_steps", lambda a, r: len(a[0])),
        (ps, "batch_estimate", "sysid.batch_estimate", lambda a, r: (len(a[0]), r.n_skipped)),
    ]


def _us(ns_total: int, n: int) -> float:
    return ns_total / n / 1e3


def layer_metrics(spans) -> tuple[dict, tuple | None]:
    """Per-layer metrics of one batch of spans, leaving out layers that did
    no work in it, and the solver's counts for the determinism check.

    Times are raw; the caller rescales them to the reference host."""
    stats = layer_stats(spans)
    m = {}
    solve = stats.get("solver.solve_step_info")
    if solve:
        # nothing below the solver is wrapped, so its self time is its time
        m["solver.solve_us"] = _us(solve.self_ns, solve.count)
        m["solver.solve_us_p95"] = float(np.percentile(solve.durations_ns, 95.0)) / 1e3
        m["solver.fail_frac"] = solve.errors / solve.count
        if solve.infos:
            iters, starts = zip(*solve.infos)
            m["solver.newton_iters_mean"] = sum(iters) / len(iters)
            m["solver.starts_mean"] = sum(starts) / len(starts)
            m["solver.restart_frac"] = sum(s > 1 for s in starts) / len(starts)
    step = stats.get("stepper.step")
    if step:
        m["stepper.step_us"] = _us(step.total_ns, step.count)
        # step minus its wrapped callees: the state update and record construction
        m["stepper.self_us"] = _us(step.self_ns, step.count)
        for span in ("stepper.ecp", "geometry.validate_patch", "geometry.convex_hull"):
            st = stats.get(span)
            m[f"{span}_calls_per_step"] = (st.count if st else 0) / step.count
            if st:
                m[f"{span}_us"] = _us(st.total_ns, st.count)
    for span, name in (("core.assemble_inputs", "core.assemble_us"), ("scenario.loads_scenario", "scenario.load_us")):
        if span in stats:
            m[name] = _us(stats[span].total_ns, stats[span].count)
    for span, name in (
        ("trajectory.write_trajectory", "trajectory.write_us_per_row"),
        ("trajectory.read_trajectory", "trajectory.read_us_per_row"),
        ("trajectory.observed_steps", "trajectory.pair_us_per_row"),
    ):
        st = stats.get(span)
        if st and sum(st.infos):
            m[name] = _us(st.total_ns, sum(st.infos))
    est = stats.get("sysid.batch_estimate")
    if est and est.infos:
        n_steps = sum(i[0] for i in est.infos)
        # per observed step, that is per pair of consecutive rows
        m["sysid.estimate_us_per_row"] = _us(est.total_ns, n_steps)
        m["sysid.skipped_frac"] = sum(i[1] for i in est.infos) / n_steps
    counts = (solve.count, solve.errors, sorted(solve.infos)) if solve else None
    return m, counts
