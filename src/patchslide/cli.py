"""Command line interface: simulate, compare, sysid, translate, quasistatic.

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

from . import _lazy_getattr
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

# the names each subcommand loads on first use, by the module that defines
# them; the commands read them through _cli, so a name set on this module
# is the one they call
__getattr__ = _lazy_getattr(globals(), {
    "QuasiStaticInput": "closed_form",
    "quasi_static_velocity": "closed_form",
    "translation_solve": "closed_form",
    "oracle_solve_step": "oracle",
    "verify_kkt": "oracle",
    "batch_estimate": "sysid",
    "observed_steps": "trajectory",
    "read_trajectory": "trajectory",
    "write_plot_data": "trajectory",
    "write_trajectory": "trajectory",
    "_check_writable": "trajectory",
    "_plot_data_paths": "trajectory",
})
_cli = sys.modules[__name__]

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
    # solve: the impulse solves alone; wall: the whole run, wall seconds
    rest = any(r.diagnostics.rest_flag for r in records)
    topple = sum(1 for r in records if not r.ecp.in_hull)
    if records:
        iters = [r.diagnostics.newton_iters for r in records]
        mean_iters = sum(iters) / len(iters)
        mean_solve = sum(r.diagnostics.wall_time for r in records) / len(records)
        stats = (
            f"newton_iters min/mean/max {min(iters)}/{mean_iters:.2f}/{max(iters)}  "
            f"solve {mean_solve * 1e3:.3f} ms/step  wall {wall / len(records) * 1e3:.3f} ms/step"
        )
    else:
        stats = "newton_iters min/mean/max -/-/-  solve - ms/step  wall - ms/step"
    return (
        f"steps {len(records)}/{planned}  rest={'yes' if rest else 'no'}  "
        f"topple_steps={topple}  {stats}"
    )


def _run(args: argparse.Namespace, scen: Scenario, solve=None) -> int:
    # one simulate run with the given per-step solve: the trajectory CSV,
    # the summary and, when asked for, the plot data.  A CSV or plot data
    # path that cannot be written fails before the first step, and touches
    # no file
    out = args.out or scen.options.output_path or "trajectory.csv"
    _cli._check_writable(out)
    prefix = Path(out).with_suffix("") if getattr(args, "plot_data", False) else None
    if prefix is not None:
        for path in _cli._plot_data_paths(prefix):
            _cli._check_writable(path, "cannot write plot data file")
    t0 = time.perf_counter()
    records = simulate(scen, solve)
    wall = time.perf_counter() - t0
    _cli.write_trajectory(records, out)
    files = None
    if prefix is not None:
        files = _cli.write_plot_data(_cli.read_trajectory(out), prefix)
    # printed once every file is written, so that a failing command prints
    # its one error line only
    print(_summary(records, planned=int(round(scen.duration / scen.h)), wall=wall))
    print(f"trajectory written to {out}")
    if files is not None:
        print(f"plot data: {len(files)} files alongside {out}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    return _run(args, _load(args))


def _cmd_compare(args: argparse.Namespace) -> int:
    scen = _load(args)
    if args.seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {args.seed}")
    records = simulate(scen)
    params, start = scen.params, scen.initial
    max_dev, worst, kkt_failures = 0.0, -1, 0
    for k, rec in enumerate(records):
        # the impulse simulate found, checked against the oracle on the
        # step's inputs: its start state, applied and normal impulses
        sol = rec.impulses
        inputs = StepInputs(params, scen.friction, start, rec.applied, sol.p_n)
        try:
            ref = _cli.oracle_solve_step(inputs)
            kkt = _cli.verify_kkt(sol, inputs, seed=args.seed)
        except PatchSlideError as e:
            raise type(e)(f"step {k}: {e}") from e
        d_t, d_o, d_r = abs(sol.p_t - ref.p_t), abs(sol.p_o - ref.p_o), abs(sol.p_r - ref.p_r)
        dev = max(d_t, d_o, d_r, d_t / params.m, d_o / params.m, d_r / params.I_z)
        if dev > max_dev:
            max_dev, worst = dev, k
        if not kkt.dissipation_optimality:
            kkt_failures += 1
        start = rec.state
    print(
        f"steps {len(records)}  max_deviation {max_dev:.3e}"
        + (f" (step {worst})" if worst >= 0 else "")
        + f"  dissipation_check_failures {kkt_failures}"
    )
    if max_dev > COMPARE_TOLERANCE:
        print(f"FAIL: deviation exceeds {COMPARE_TOLERANCE:g}", file=sys.stderr)
        return 3
    print(f"OK: both solution paths agree within {COMPARE_TOLERANCE:g}")
    return 0


def _cmd_sysid(args: argparse.Namespace) -> int:
    rows = _cli.read_trajectory(args.trajectory)
    steps = _cli.observed_steps(rows)
    est = _cli.batch_estimate(steps, m=args.m, I_z=args.I_z, q_z=args.q_z, floor=args.floor)
    print(f"et2mu   = {est.et2mu:.10g}   (mad {est.dispersion[0]:.3e})  first-identity root, equals e_t*mu")
    for i, (axis, ratio) in enumerate((("o", est.ratio_o), ("r", est.ratio_r)), start=1):
        root = math.sqrt(ratio) if ratio >= 0.0 else math.nan  # a negative median has no root
        print(f"ratio_{axis} = {ratio:.10g}   (mad {est.dispersion[i]:.3e})  (e_{axis}/e_t)^2; e_{axis}/e_t = {root:.10g}")
    print(f"steps used {len(est.per_step)} of {len(steps)} ({est.n_skipped} skipped)")
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    scen = _load(args)
    if scen.initial.w_z != 0.0:
        raise ValidationError("pure-translation rollout requires w_z = 0 initially")
    return _run(args, scen, _cli.translation_solve)


def _cmd_quasistatic(args: argparse.Namespace) -> int:
    v = _cli.quasi_static_velocity(
        _cli.QuasiStaticInput(
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

    p = sub.add_parser("compare", help="run both solution paths and report deviations")
    _add_scenario_args(p)
    p.add_argument("--seed", type=int, default=0, help="seed for the dissipation sampling check")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sysid", help="estimate friction parameters from a trajectory CSV")
    p.add_argument("--trajectory", required=True, help="trajectory CSV path")
    p.add_argument("--m", type=float, required=True, help="slider mass (kg)")
    p.add_argument("--I-z", dest="I_z", type=float, required=True, help="moment of inertia (kg m^2)")
    p.add_argument("--q-z", dest="q_z", type=float, required=True, help="CM height (m)")
    p.add_argument("--floor", type=float, default=1e-8, help="degeneracy floor on denominators")
    p.set_defaults(func=_cmd_sysid)

    p = sub.add_parser("translate", help="pure-translation closed-form rollout")
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
