"""Dump the benchmark scenarios' trajectory records, and diff two dumps.

A change to what a step computes is checked by comparing its records with
its parent's on every scenario of the `spin`, `push` and `sweep` workloads
at seeds 7 and 11, built by `benchmark/workloads.build_scenarios`, on the
three bundled examples, and on three runs that reach what no benchmark
workload does:

* example1 with an L-shaped patch, the one run whose patch flag comes from
  the ray cast;
* example1 under a table schedule with a stretch before its first row,
  rows held over several steps and lambda_z changing between rows;
* example1 without spin, a pure translation (what the `translate` command
  runs and checks against its closed form), at sigma_min 1e-6 and 0.05.

    python3 scripts/compare_records.py dump --out change.json
    python3 scripts/compare_records.py dump --src ../parent/src --out parent.json
    python3 scripts/compare_records.py diff parent.json change.json

`dump` simulates each scenario with the package found under `--src`
(default: this repository's `src/`) and writes, per run, the step count,
the rest flags, the hull and patch flags and the solve's iterations, and
every state, impulse, applied-impulse and ECP field and the residual norm
as `float.hex`.  A run that raises is recorded by its exception class and
message.  `diff` prints, for each field, the largest change over a run
relative to that field's largest magnitude in the run, the maximum over
all runs, and counts the runs whose step counts, flags or iterations
differ.  It names the runs that differ in error, step count, rest,
in_hull or in_patch; a run whose iteration counts alone differ is only
counted, since a change to the warm start moves most of them.  For each
dump it prints every workload's total solve iterations and their mean per
step, so that a change to the warm start reports its effect on the solve.
Of the runs with equal step counts it also counts those, and their steps,
in which any float field moved at all, so that a roundoff-level change
says how much of the corpus it touched.  It exits 0 when the two dumps are equal and 1 otherwise.
Nothing is timed: `benchmark/run.py` is the harness.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("spin", "push", "sweep")
SEEDS = (7, 11)
EXAMPLES = ("example1", "example2", "example3")
# a 6 cm square with its +x, +y quadrant cut away: braking shifts
# example1's ECP forward of the CM, into the notch, and its steps take each
# of the flag pairs (in_hull, in_patch) = (1, 1), (1, 0) and (0, 0)
L_PATCH = ((-0.03, -0.03), (0.03, -0.03), (0.03, 0.0), (0.0, 0.0), (0.0, 0.03), (-0.03, 0.03))
FIELDS = {
    "state": ("q_x", "q_y", "theta_z", "v_x", "v_y", "w_z", "t"),
    "impulses": ("p_t", "p_o", "p_r", "sigma", "p_n"),
    "applied": ("p_x", "p_y", "p_z", "p_xtau", "p_ytau", "p_ztau"),
    "ecp": ("a_x", "a_y"),
    "diagnostics": ("residual_norm",),
}
# a table run: the zero wrench until its first row at 0.055 s, then rows
# held 7-12 steps each at h = 0.01, with lambda_z (N) changing between rows
TABLE_TIMES = (0.055, 0.15, 0.27, 0.34)
TABLE_WRENCHES = (
    {"lambda_x": 0.2, "lambda_z": 1.5},
    {"lambda_x": -0.3, "lambda_z": -2.0, "lambda_ztau": 0.002},
    {"lambda_y": 0.4, "lambda_z": 3.0},
    {"lambda_y": -0.1},
)
# compared for equality, step by step
FLAGS = ("rest", "in_hull", "in_patch", "iters")


def _run(ps, scen) -> dict:
    # one simulate run
    try:
        with warnings.catch_warnings():
            # a pusher can take the ECP out of the hull; the flags record it
            warnings.simplefilter("ignore", UserWarning)
            records = ps.simulate(scen)
    except ps.PatchSlideError as e:
        return {"error": f"{type(e).__name__}: {e}"}
    out = {
        "steps": len(records),
        "rest": [r.diagnostics.rest_flag for r in records],
        "in_hull": [r.ecp.in_hull for r in records],
        "in_patch": [r.ecp.in_patch for r in records],
        "iters": [r.diagnostics.newton_iters for r in records],
    }
    for part, names in FIELDS.items():
        for name in names:
            out[f"{part}.{name}"] = [getattr(getattr(r, part), name).hex() for r in records]
    return out


def dump(src: Path, out: Path) -> None:
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "benchmark"))
    ps = importlib.import_module("patchslide")
    workloads = importlib.import_module("workloads")
    runs = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            n = workloads.SIZES[workload][0]
            scenarios = workloads.build_scenarios(ps, workload, seed, n, lambda: None)
            for i, scen in enumerate(scenarios):
                runs[f"{workload}/{seed}/{i}"] = _run(ps, scen)
    for name in EXAMPLES:
        runs[f"examples/{name}"] = _run(ps, ps.resolve_scenario(name))
    ex1 = ps.resolve_scenario("example1")
    l_params = dataclasses.replace(ex1.params, patch=ps.PolygonPatch(L_PATCH))
    runs["examples/example1-l"] = _run(ps, dataclasses.replace(ex1, params=l_params))
    table = ps.TableSchedule(TABLE_TIMES, tuple(ps.AppliedWrench(**w) for w in TABLE_WRENCHES))
    runs["examples/example1-table"] = _run(ps, dataclasses.replace(ex1, schedule=table))
    sliding = dataclasses.replace(ex1.initial, w_z=0.0)
    for sigma_min in (1e-6, 0.05):
        options = dataclasses.replace(ex1.options, sigma_min=sigma_min)
        scen = dataclasses.replace(ex1, initial=sliding, options=options)
        runs[f"examples/example1-translate-{sigma_min:g}"] = _run(ps, scen)
    out.write_text(json.dumps({"package": ps.__file__, "runs": runs}))
    print(f"{len(runs)} runs of {ps.__file__} written to {out}")


def _largest_change(a: list[str], b: list[str]) -> float:
    xs = [float.fromhex(v) for v in a]
    ys = [float.fromhex(v) for v in b]
    scale = max(map(abs, xs), default=0.0)
    change = max((abs(x - y) for x, y in zip(xs, ys)), default=0.0)
    if change == 0.0:
        return 0.0
    return change / scale if scale > 0.0 else float("inf")


def _iterations(runs: dict, workload: str) -> str:
    # the total solve iterations over a workload's runs that did not raise,
    # and their mean per step
    iters = [n for key, run in runs.items() if key.startswith(f"{workload}/") and "error" not in run
             for n in run["iters"]]
    mean = sum(iters) / len(iters) if iters else float("nan")
    return f"{sum(iters)} ({mean:.3f} per step)"


def diff(a_path: Path, b_path: Path) -> int:
    a = json.loads(a_path.read_text())["runs"]
    b = json.loads(b_path.read_text())["runs"]
    if a.keys() != b.keys():
        print(f"the dumps hold different runs: {len(a)} and {len(b)}")
        return 1
    fields = [f"{part}.{name}" for part, names in FIELDS.items() for name in names]
    worst = dict.fromkeys(fields, 0.0)
    differ = {"error": 0, "steps": 0, **dict.fromkeys(FLAGS, 0)}
    named = []
    iters_only = 0
    # runs compared step by step, and those runs and steps where any float moved
    compared = steps = moved_runs = moved_steps = 0
    for key, ra in a.items():
        rb = b[key]
        if "error" in ra or "error" in rb:
            if ra.get("error") != rb.get("error"):
                differ["error"] += 1
                named.append(key)
            continue
        if ra["steps"] != rb["steps"]:
            differ["steps"] += 1
            named.append(f"{key} (steps {ra['steps']} and {rb['steps']})")
            continue
        flags = [flag for flag in FLAGS if ra[flag] != rb[flag]]
        for flag in flags:
            differ[flag] += 1
        if flags == ["iters"]:
            iters_only += 1
        elif flags:
            named.append(key)
        moved = set()
        for field in fields:
            worst[field] = max(worst[field], _largest_change(ra[field], rb[field]))
            moved.update(i for i, (x, y) in enumerate(zip(ra[field], rb[field])) if x != y)
        compared += 1
        steps += ra["steps"]
        moved_runs += bool(moved)
        moved_steps += len(moved)
    for workload in WORKLOADS + ("examples",):
        n = sum(key.startswith(f"{workload}/") for key in a)
        print(f"{workload}: {n} runs, solve iterations " + ", ".join(
            _iterations(runs, workload) for runs in (a, b)))
    print("runs that differ in " + ", ".join(f"{k} {v}" for k, v in differ.items()))
    if named:
        print("  " + "\n  ".join(named))
    print(f"runs that differ in iters alone (not named): {iters_only}")
    print(f"runs with any float field moved: {moved_runs} of {compared}, "
          f"steps: {moved_steps} of {steps}")
    print("largest change relative to the field's largest magnitude in its run:")
    for field in fields:
        print(f"  {field:26s} {worst[field]:.3e}")
    same = not any(differ.values()) and not any(worst.values())
    print("equal" if same else "different")
    return 0 if same else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump", help="simulate the scenarios and write their records")
    p_dump.add_argument("--out", type=Path, required=True)
    p_dump.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the patchslide package to run")
    p_diff = sub.add_parser("diff", help="compare two dumps field by field")
    p_diff.add_argument("a", type=Path)
    p_diff.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.src.resolve(), args.out)
        return 0
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
