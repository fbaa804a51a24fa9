"""Command line interface: simulate, compare, sysid, translate, quasistatic.

Each command imports the closed forms, the oracle, identification and the
trajectory files from their modules when it calls them, so that a command
loads only what it uses.

Exit codes: 0 success, 1 validation or input problems (usage errors
included), 2 solver failures, 3 comparison deviation above tolerance.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

from .core import StepInputs
from .errors import (
    ContactLossError,
    NoConvergenceError,
    OracleFailure,
    PatchSlideError,
    ToppleRiskError,
    ValidationError,
    ZeroSlipError,
)
from .scenario import Scenario, resolve_scenario
from .stepper import TrajectoryRecord, simulate

__all__ = ["main"]

COMPARE_TOLERANCE = 1e-6

# solver failures exit 2; every other PatchSlideError is a validation or
# input problem and exits 1
_SOLVER_ERRORS = (
    NoConvergenceError,
    ContactLossError,
    OracleFailure,
    ToppleRiskError,
    ZeroSlipError,
)


def _load(args: argparse.Namespace) -> Scenario:
    scen = resolve_scenario(args.scenario)
    if getattr(args, "duration", None) is not None:
        scen = replace(scen, duration=args.duration)
    if getattr(args, "h", None) is not None:
        scen = replace(scen, h=args.h)
    return scen


def _summary(records: list[TrajectoryRecord], planned: int, wall: float) -> str:
    # rest: the count of rest steps; solve: the impulse solves alone; wall:
    # the whole run, wall seconds
    rest = topple = total = 0
    low, high, solve = math.inf, 0, 0.0
    for r in records:
        d = r.diagnostics
        rest += d.rest_flag
        topple += not r.ecp.in_hull
        total += d.newton_iters
        low, high = min(low, d.newton_iters), max(high, d.newton_iters)
        solve += d.wall_time
    if records:
        n = len(records)
        stats = (
            f"newton_iters min/mean/max {low}/{total / n:.2f}/{high}  "
            f"solve {solve / n * 1e3:.3f} ms/step  wall {wall / n * 1e3:.3f} ms/step"
        )
    else:
        stats = "newton_iters min/mean/max -/-/-  solve - ms/step  wall - ms/step"
    return f"steps {len(records)}/{planned}  rest={rest}  topple_steps={topple}  {stats}"


def _check_records(scen: Scenario, records: list[TrajectoryRecord], reference) -> tuple[float, str, int]:
    # each record against reference(inputs, impulse) -> (p_t, p_o, p_r,
    # passed), on the inputs simulate solved it from: record k-1's state
    # (the initial state for step 0), record k's applied and normal
    # impulses.  Returns the largest deviation, its report and the count of
    # records that failed; an error from reference names its step
    params, start = scen.params, scen.initial
    max_dev, worst, failures = 0.0, -1, 0
    for k, rec in enumerate(records):
        sol = rec.impulses
        inputs = StepInputs(params, scen.friction, start, rec.applied, sol.p_n)
        try:
            ref_t, ref_o, ref_r, passed = reference(inputs, sol)
        except PatchSlideError as e:
            raise type(e)(f"step {k}: {e}") from e
        d_t, d_o, d_r = abs(sol.p_t - ref_t), abs(sol.p_o - ref_o), abs(sol.p_r - ref_r)
        dev = max(d_t, d_o, d_r, d_t / params.m, d_o / params.m, d_r / params.I_z)
        if dev > max_dev:
            max_dev, worst = dev, k
        failures += not passed
        start = rec.state
    return max_dev, f"max_deviation {max_dev:.3e}" + (f" (step {worst})" if worst >= 0 else ""), failures


def _fail() -> int:
    print(f"FAIL: deviation exceeds {COMPARE_TOLERANCE:g}", file=sys.stderr)
    return 3


def _run(args: argparse.Namespace, scen: Scenario, reference=None) -> int:
    # one simulate run: the trajectory CSV, the summary and, when asked
    # for, the plot data.  Given a reference, the records are checked
    # against it first.  A CSV or plot data path that cannot be written
    # fails before the first step; a command that fails touches no file
    from .trajectory import _check_writable, _plot_data_paths, read_trajectory, write_plot_data, write_trajectory

    out = args.out or scen.options.output_path or "trajectory.csv"
    _check_writable(out)
    prefix = Path(out).with_suffix("") if getattr(args, "plot_data", False) else None
    if prefix is not None:
        for path in _plot_data_paths(prefix):
            _check_writable(path, "cannot write plot data file")
    t0 = time.perf_counter()
    records = simulate(scen)
    wall = time.perf_counter() - t0
    report = [_summary(records, planned=int(round(scen.duration / scen.h)), wall=wall)]
    if reference is not None:
        max_dev, deviation, _ = _check_records(scen, records, reference)
        report.append(f"closed_form {deviation}")
        if max_dev > COMPARE_TOLERANCE:
            print("\n".join(report))
            return _fail()
    write_trajectory(records, out)
    files = None
    if prefix is not None:
        files = write_plot_data(read_trajectory(out), prefix)
    # printed once every file is written, so that a failing command prints
    # its one error line only
    print("\n".join(report))
    print(f"trajectory written to {out}")
    if files is not None:
        print(f"plot data: {len(files)} files alongside {out}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    return _run(args, _load(args))


def _cmd_compare(args: argparse.Namespace) -> int:
    scen = _load(args)

    def oracle(inputs, sol):
        # the oracle's impulse, and whether simulate's passes the dissipation check
        from .oracle import oracle_solve_step, verify_kkt

        ref = oracle_solve_step(inputs)
        kkt = verify_kkt(sol, inputs)
        return ref.p_t, ref.p_o, ref.p_r, kkt.dissipation_optimality

    records = simulate(scen)
    max_dev, deviation, kkt_failures = _check_records(scen, records, oracle)
    print(f"steps {len(records)}  {deviation}  dissipation_check_failures {kkt_failures}")
    if max_dev > COMPARE_TOLERANCE:
        return _fail()
    print(f"OK: both solution paths agree within {COMPARE_TOLERANCE:g}")
    return 0


def _cmd_sysid(args: argparse.Namespace) -> int:
    from .sysid import batch_estimate
    from .trajectory import observed_steps, read_trajectory

    rows = read_trajectory(args.trajectory)
    steps = observed_steps(rows)
    est = batch_estimate(steps, m=args.m, I_z=args.I_z, q_z=args.q_z, floor=args.floor)
    print(f"et2mu   = {est.et2mu:.10g}   (mad {est.dispersion[0]:.3e})  first-identity root, equals e_t*mu")
    for i, (axis, ratio) in enumerate((("o", est.ratio_o), ("r", est.ratio_r)), start=1):
        root = math.sqrt(ratio) if ratio >= 0.0 else math.nan  # a negative median has no root
        print(f"ratio_{axis} = {ratio:.10g}   (mad {est.dispersion[i]:.3e})  (e_{axis}/e_t)^2; e_{axis}/e_t = {root:.10g}")
    print(f"steps used {len(est.per_step)} of {len(steps)} ({est.n_skipped} skipped)")
    return 0


def _translation(inputs: StepInputs, impulse) -> tuple[float, float, float, bool]:
    # the closed form's impulse for a torque-free step from w_z = 0
    from .closed_form import pure_translation_step

    a, s = inputs.applied, inputs.state
    if a.p_xtau != 0.0 or a.p_ytau != 0.0 or a.p_ztau != 0.0:
        raise ValidationError("pure-translation rollout requires a torque-free schedule")
    res = pure_translation_step((s.v_x, s.v_y), (a.p_x, a.p_y), inputs.p_n, inputs.friction, inputs.params.m)
    return res.p_t, res.p_o, 0.0, True


def _cmd_translate(args: argparse.Namespace) -> int:
    scen = _load(args)
    if scen.initial.w_z != 0.0:
        raise ValidationError("pure-translation rollout requires w_z = 0 initially")
    return _run(args, scen, _translation)


def _cmd_quasistatic(args: argparse.Namespace) -> int:
    from .closed_form import QuasiStaticInput, quasi_static_velocity

    v = quasi_static_velocity(
        QuasiStaticInput(
            contact_point=(args.contact_x, args.contact_y),
            contact_velocity=(args.vx, args.vy),
            cm=(args.cm_x, args.cm_y),
            c=args.c,
        )
    )
    print(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}")
    return 0


class _Parser(argparse.ArgumentParser):
    # a usage error (a missing flag, or a value its type cannot parse) is an
    # input problem: argparse's message, then exit 1 rather than argparse's
    # 2, which is the code of solver failures.  add_subparsers builds the
    # subcommands' parsers with this class too
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_scenario_args(p: argparse.ArgumentParser, with_out: bool = False) -> None:
    p.add_argument("--scenario", required=True, help="scenario file path or bundled name")
    p.add_argument("--duration", type=float, default=None, help="override run duration (s)")
    p.add_argument("--h", type=float, default=None, help="override step length (s)")
    if with_out:
        p.add_argument("--out", default=None, help="trajectory CSV path (default trajectory.csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="patchslide", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario and write the trajectory CSV")
    _add_scenario_args(p, with_out=True)
    p.add_argument("--plot-data", action="store_true", help="emit per-column (t, value) files")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="check each simulated step against the oracle and report deviations")
    _add_scenario_args(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sysid", help="estimate friction parameters from a trajectory CSV")
    p.add_argument("--trajectory", required=True, help="trajectory CSV path")
    p.add_argument("--m", type=float, required=True, help="slider mass (kg)")
    p.add_argument("--I-z", dest="I_z", type=float, required=True, help="moment of inertia (kg m^2)")
    p.add_argument("--q-z", dest="q_z", type=float, required=True, help="CM height (m)")
    p.add_argument("--floor", type=float, default=1e-8, help="degeneracy floor on denominators")
    p.set_defaults(func=_cmd_sysid)

    p = sub.add_parser("translate", help="simulate a pure translation, checked against its closed form")
    _add_scenario_args(p, with_out=True)
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("quasistatic", help="quasi-static slider velocity for one pusher contact")
    p.add_argument("--contact-x", type=float, required=True)
    p.add_argument("--contact-y", type=float, required=True)
    p.add_argument("--vx", type=float, required=True, help="contact velocity x (m/s)")
    p.add_argument("--vy", type=float, required=True, help="contact velocity y (m/s)")
    p.add_argument("--cm-x", type=float, default=0.0)
    p.add_argument("--cm-y", type=float, default=0.0)
    p.add_argument("--c", type=float, required=True, help="ellipsoid ratio e_r/e_t (m)")
    p.set_defaults(func=_cmd_quasistatic)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PatchSlideError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, _SOLVER_ERRORS) else 1


if __name__ == "__main__":
    sys.exit(main())
