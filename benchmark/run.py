"""Layered benchmark for patchslide.

    python3 benchmark/run.py --workload spin --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program is imported from ``src/`` of
the same checkout; without it the harness exits with status 2.

Workloads (inputs come from ``--seed`` only; one process, closed loop:
each run starts when the previous one returns):

  spin      unforced spin-downs of square sliders, h in {1e-2, 1e-3}, run
            to rest.  Long warm-started runs: per-step overhead of stepper,
            geometry and the constant-schedule path of core.
  push      a pulsing body pusher on square sliders for 100-140 steps.
            Busy schedule sampling in core, poorer warm starts.
  sweep     20-step runs on a disk patch across mass, e_r, h and load.
            Cold starts, restarts and failures; no convex hull.  Runs that
            raise are counted, never filtered.
  identify  write -> read -> observed_steps -> batch_estimate on spin and
            push logs simulated during set-up.  trajectory and sysid only.

BENCHMARK.json gates spin, push and identify.  sweep is left out of it:
its timing is ruled by solver restarts and failures, rare events whose
number changes several-fold between seeds, so no bound could hold it;
run it directly to see them.

A run sets up several times (import, scenario building and loading, and
for identify the simulation of its logs), spread over the run, and makes
passes over the inputs until ``--seconds`` is used up.  Each pass visits
the inputs in a fresh seeded order.  Between runs the harness times a
fixed reference kernel and rescales every time to a host of reference
speed (see reference.py); the report keeps the raw figures as well.
Every metric is the median over passes (set-up: over rounds); the report
gives its quartiles.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate; traced passes and the
set-up rounds wrap the program's functions from outside (layers.py) and
the result holds the per-layer metrics and the tracing overhead.

Outputs are checked outside the timed region: rest records have zero
velocity, sliding impulses lie on the friction ellipsoid, a seeded sample
of steps agrees with the oracle, identification recovers the generating
parameters, and every pass and set-up round reproduces the first one.

The last line of standard output is the result object, the line before it
the full report.  The report is also written under ``.bench_out/`` with,
for a traced run, the spans of its first traced pass.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import yaml  # noqa: F401  -- a dependency of the program, imported before set-up is timed

import checks
import workloads
from layers import PER_LAYER, layer_metrics, trace_targets
from reference import HostSpeed
from tracing import Tracer, write_spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("spin", "push", "sweep", "identify")
SETUP_ROUNDS = 5
ORACLE_SAMPLES = (24, 4)  # full, smoke
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "us_per_step": "us",
    "us_per_row": "us",
    "run_ms_p50": "ms",
    "run_ms_tail": "ms",
    "ok_frac": "frac",
}


def import_program():
    """Import patchslide afresh from this checkout's src/."""
    for name in [n for n in sys.modules if n == "patchslide" or n.startswith("patchslide.")]:
        del sys.modules[name]
    ps = importlib.import_module("patchslide")
    if Path(ps.__file__).resolve().parent != (SRC / "patchslide").resolve():
        raise SystemExit(f"benchmark: imported patchslide from {ps.__file__}, not from {SRC}")
    return ps


def setup_round(workload, seed, n, tracer, between):
    """Import the program, then build and load the inputs, calling
    between() after each input.

    Returns (seconds, program, inputs, per identify log its simulate
    seconds and end time, or None)."""
    gc.collect()
    t0 = time.perf_counter()
    ps = import_program()
    if tracer is not None:
        tracer.install(trace_targets(ps))
    try:
        if workload == "identify":
            data, sim = workloads.build_logs(ps, seed, n, between)
        else:
            data, sim = workloads.build_scenarios(ps, workload, seed, n, between), None
    finally:
        if tracer is not None:
            tracer.uninstall()
    return time.perf_counter() - t0, ps, data, sim


def fingerprint(workload, data) -> str:
    """What a repeated set-up must reproduce exactly.  Compared as text:
    each round imports the program afresh, so its classes are new objects."""
    if workload == "identify":
        return repr([(len(log.records), log.records[-1].state) for log in data])
    return repr(data)


# ---------------------------------------------------------------- one run
# Each returns what the run produced; digest_* turn that into the counts
# every pass must reproduce and what the checks need.


def simulate_one(ps, scenario, path):
    return ps.simulate(scenario)


def digest_simulate(records):
    diag = [r.diagnostics for r in records]
    # rests declared on a converged slip below sigma_min rather than on a stopping step
    slow = sum(r.diagnostics.rest_flag and r.impulses.sigma > 0.0 for r in records)
    return (None, len(records), sum(d.rest_flag for d in diag), sum(d.newton_iters for d in diag), slow), records


def identify_one(ps, log, path):
    ps.write_trajectory(log.records, path)
    rows = ps.read_trajectory(path)
    steps = ps.observed_steps(rows)
    return len(rows), len(steps), ps.batch_estimate(steps, *log.mass)


def digest_identify(product):
    n_rows, n_steps, est = product
    return (None, n_rows, n_steps, est.n_skipped, est.et2mu, est.ratio_o, est.ratio_r), est


def run_pass(ps, one, digest, items, order, tracer, speed, keep, path):
    """One pass over the inputs in the given order.  Returns per-input wall
    times, the time each run ended, outcomes, and (when keep is set) what
    the checks need."""
    times = [0.0] * len(items)
    ends = [0.0] * len(items)
    outcomes = [None] * len(items)
    kept = {}
    for i in order:
        speed.maybe_sample()
        if tracer is not None:
            tracer.run_id = i
        t0 = time.perf_counter()
        try:
            product = one(ps, items[i], path)
        except Exception as e:  # a failed run is classified and counted; the pass goes on
            ends[i] = time.perf_counter()
            times[i] = ends[i] - t0
            outcomes[i] = (type(e).__name__, str(e))
            continue
        ends[i] = time.perf_counter()
        times[i] = ends[i] - t0
        outcomes[i], product = digest(product)
        if keep:
            kept[i] = product
    return times, ends, outcomes, kept


def tail_percentile(n: int) -> float:
    """Highest candidate percentile with at least TAIL_MIN_BEYOND samples
    above it; the median when there are too few samples for any."""
    for p in TAIL_CANDIDATES:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            return p
    return 50.0


def pass_metrics(times, outcomes, tail_p, rows_are_steps) -> dict:
    ok = [i for i, o in enumerate(outcomes) if o[0] is None]
    rows = sum(outcomes[i][1] for i in ok)
    if not rows:
        raise RuntimeError("no run of the pass produced any row")
    ms = np.asarray(times) * 1e3
    out = {
        "us_per_row": 1e6 * sum(times) / rows,
        "run_ms_p50": float(np.percentile(ms, 50.0)),
        "run_ms_tail": float(np.percentile(ms, tail_p)),
    }
    if rows_are_steps:
        out["us_per_step"] = 1e6 * sum(times[i] for i in ok) / rows
    return out


def summarize(values) -> dict:
    values = list(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"value": med, "q1": q1, "q3": q3, "n": len(values)}


# ---------------------------------------------------------------- the run


class Run:
    """Set-up rounds and passes of one workload, and what they measured."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.n = workloads.SIZES[workload][1 if smoke else 0]
        self.rounds = 2 if smoke else SETUP_ROUNDS
        self.tracer = Tracer() if trace else None
        self.speed = HostSpeed()
        self.tail_p = tail_percentile(self.n)
        if workload == "identify":
            self.one, self.digest = identify_one, digest_identify
        else:
            self.one, self.digest = simulate_one, digest_simulate
        # per set-up round: (raw seconds, scale, raw and scaled simulate
        # seconds of the identify logs)
        self.setups: list[tuple[float, float, tuple | None]] = []
        # per pass: (raw times, scaled times)
        self.untraced: list[tuple[list, list]] = []
        self.traced: list[tuple[list, list]] = []
        # per traced batch (set-up round or pass): scaled layer metrics
        self.layer_units: list[dict] = []
        self.solver_counts: dict[str, list] = {"setup": [], "pass": []}
        self.deterministic = True
        self.spans_out = None

    def _take_spans(self, phase: str, scale: float) -> None:
        spans = self.tracer.take()
        unit, counts = layer_metrics(spans)
        self.layer_units.append({k: v * scale if PER_LAYER[k] == "us" else v for k, v in unit.items()})
        self.solver_counts[phase].append(counts)
        if phase == "pass" and self.spans_out is None:
            self.spans_out = spans

    def setup(self):
        speed = self.speed
        speed.sample()
        t0, spent = time.perf_counter(), speed.spent
        dt, ps, data, sim = setup_round(self.workload, self.seed, self.n, self.tracer, speed.maybe_sample)
        # the kernel samples taken between inputs are not set-up work
        dt -= speed.spent - spent
        speed.sample()
        scale = speed.scale_over(t0, time.perf_counter())
        if sim is not None:
            sim = (sum(s for s, _ in sim), sum(s * speed.scale(end - 0.5 * s) for s, end in sim))
        self.setups.append((dt, scale, sim))
        if self.tracer is not None:
            self._take_spans("setup", scale)
        return ps, data

    def _setup_again(self, reference: str) -> None:
        _, data = self.setup()
        if fingerprint(self.workload, data) != reference:
            self.deterministic = False

    def measure(self) -> None:
        self.ps, self.data = self.setup()
        reference = fingerprint(self.workload, self.data)
        min_passes = 2 if self.smoke else (4 if self.tracer else 3)
        max_passes = min_passes if self.smoke else 10_000
        work = OUT / f"work-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        pass_s = 0.0
        last = 0.0
        p = 0
        try:
            while p < max_passes and (p < min_passes or pass_s + last <= self.seconds):
                # spread the remaining set-up rounds over the measured time
                if len(self.setups) < self.rounds and pass_s >= len(self.setups) * self.seconds / self.rounds:
                    self._setup_again(reference)
                    continue
                last = self._pass(p, work / "log.csv")
                pass_s += last
                p += 1
            while len(self.setups) < self.rounds:
                self._setup_again(reference)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def _pass(self, p: int, path: Path) -> float:
        traced = self.tracer is not None and p % 2 == 1
        tracer = self.tracer if traced else None
        order = np.random.default_rng([self.seed, 7, p]).permutation(self.n)
        gc.collect()
        if traced:
            tracer.install(trace_targets(self.ps))
        t0 = time.perf_counter()
        try:
            times, ends, outcomes, kept = run_pass(
                self.ps, self.one, self.digest, self.data, order, tracer, self.speed, p == 0, path
            )
        finally:
            if traced:
                tracer.uninstall()
        elapsed = time.perf_counter() - t0
        self.speed.sample()
        if p == 0:
            self.outcomes, self.kept = outcomes, kept
        elif outcomes != self.outcomes:
            self.deterministic = False
        scaled = [t * self.speed.scale(e - 0.5 * t) for t, e in zip(times, ends)]
        (self.traced if traced else self.untraced).append((times, scaled))
        if traced:
            self._take_spans("pass", self.speed.scale_over(t0, t0 + elapsed))
        return elapsed

    # ---- correctness, outside the timed region

    def check(self) -> dict[int, list[str]]:
        problems: dict[int, list[str]] = {}
        if self.workload == "identify":
            for i, est in self.kept.items():
                found = checks.check_estimate(est, self.data[i].truth)
                if found:
                    problems[i] = found
        else:
            for i, records in self.kept.items():
                found = checks.check_records(self.data[i], records)
                if found:
                    problems[i] = found
            rng = np.random.default_rng([self.seed, 11])
            for i, k in checks.sample_steps(rng, self.kept, ORACLE_SAMPLES[1 if self.smoke else 0]):
                found = checks.check_against_oracle(self.ps, self.data[i], self.kept[i], k)
                if found:
                    problems.setdefault(i, []).extend(found)
        for phase in self.solver_counts.values():
            if len(set(map(repr, phase))) > 1:
                self.deterministic = False
        return problems

    # ---- metrics

    def end_to_end(self, ok_frac: float) -> dict:
        steps = self.workload != "identify"
        out = {
            "setup_s": summarize(dt * scale for dt, scale, _ in self.setups),
            "ok_frac": summarize([ok_frac]),
        }
        out["setup_s"]["raw"] = statistics.median(dt for dt, _, _ in self.setups)
        if not steps:
            # identify's own runs take no steps: its per-step figure is the
            # simulate cost of the logs it reads, timed in each set-up round
            sim_steps = sum(len(log.records) for log in self.data)
            out["us_per_step"] = summarize(1e6 * sim[1] / sim_steps for _, _, sim in self.setups)
            out["us_per_step"]["raw"] = statistics.median(1e6 * sim[0] / sim_steps for _, _, sim in self.setups)
        per_pass = [pass_metrics(scaled, self.outcomes, self.tail_p, steps) for _, scaled in self.untraced]
        raw = [pass_metrics(times, self.outcomes, self.tail_p, steps) for times, _ in self.untraced]
        for name in per_pass[0]:
            out[name] = summarize(m[name] for m in per_pass)
            out[name]["raw"] = statistics.median(m[name] for m in raw)
        return {name: out[name] for name in END_TO_END}

    def per_layer(self) -> dict:
        out = {}
        for name in PER_LAYER:
            values = [u[name] for u in self.layer_units if name in u]
            # a layer that did no work on this workload reads 0
            out[name] = summarize(values) if values else {"value": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
        # each traced pass against the untraced pass just before it
        ratios = [sum(t[1]) / sum(u[1]) - 1.0 for t, u in zip(self.traced, self.untraced)]
        out["trace.overhead_frac"] = summarize(ratios)
        return out


def provenance(seed: int) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "seed": seed,
        "commit": commit,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    r = Run(workload, seed, seconds, trace, smoke)
    r.measure()
    problems = r.check()

    attempted = len(r.outcomes)
    failures_by_type: dict[str, int] = {}
    first_failures: dict[str, str] = {}
    for o in r.outcomes:
        if o[0] is not None:
            failures_by_type[o[0]] = failures_by_type.get(o[0], 0) + 1
            first_failures.setdefault(o[0], o[1])
    failed = {i for i, o in enumerate(r.outcomes) if o[0] is not None} | set(problems)
    ok_runs = [o for o in r.outcomes if o[0] is None]
    counts = {
        "attempted": attempted,
        "failed": len(failed),
        "failed_frac": len(failed) / attempted,
        "failures_by_type": failures_by_type,
        "first_failures": first_failures,
        "check_failures": sum(len(v) for v in problems.values()),
        "rows": sum(o[1] for o in ok_runs),
    }
    if workload == "identify":
        counts["observed_steps"] = sum(o[2] for o in ok_runs)
        counts["skipped_steps"] = sum(o[3] for o in ok_runs)
    else:
        counts["rest_records"] = sum(o[2] for o in ok_runs)
        counts["newton_iters"] = sum(o[3] for o in ok_runs)
        counts["slow_slip_rests"] = sum(o[4] for o in ok_runs)
    if trace:
        solver = (r.solver_counts["pass"] or r.solver_counts["setup"])[-1]
        if solver is not None:
            counts["solver"] = {
                "solves": solver[0],
                "failed": solver[1],
                "newton_iters": sum(i for i, _ in solver[2]),
                "starts": sum(s for _, s in solver[2]),
                "restarted": sum(s > 1 for _, s in solver[2]),
            }

    took = r.speed.took
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "provenance": provenance(seed),
        "runs_per_pass": r.n,
        "setup_rounds": r.rounds,
        "passes": {"untraced": len(r.untraced), "traced": len(r.traced)},
        "tail_percentile": r.tail_p,
        "tail_samples_beyond": int(r.n * (100.0 - r.tail_p) / 100.0),
        "reference_kernel_s": {"samples": len(took), "median": statistics.median(took), "min": min(took)},
        "counts": counts,
        "deterministic": r.deterministic,
        "problems": {str(i): v[:3] for i, v in sorted(problems.items())[:10]},
    }
    if trace:
        table, units = r.per_layer(), PER_LAYER
        report["per_layer"] = table
    else:
        table, units = r.end_to_end(1.0 - counts["failed_frac"]), END_TO_END
        report["end_to_end"] = table

    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if r.spans_out is not None:
        write_spans(r.spans_out, OUT / f"spans-{stem}.csv")

    result = {
        "correct": r.deterministic and not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": table[name]["value"], "unit": unit} for name, unit in units.items()},
    }
    return report, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, two passes, checks on")
    args = ap.parse_args(argv)
    if not (SRC / "patchslide" / "__init__.py").is_file():
        print(f"benchmark: no program source at {SRC / 'patchslide'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    units = PER_LAYER if args.trace else END_TO_END
    for name, s in (report.get("per_layer") or report["end_to_end"]).items():
        raw = f"  raw {s['raw']:.6g}" if "raw" in s else ""
        print(f"{args.workload:9s} {name:40s} {s['value']:14.6g} {units[name]:5s}"
              f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}{raw}")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
