"""Command line interface: simulate, compare, sysid, translate, quasistatic.

Exit codes: 0 success, 1 validation or input problems, 2 solver failures,
3 comparison deviation above tolerance.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .closed_form import QuasiStaticInput, pure_translation_step, quasi_static_velocity
from .core import ContactImpulse, SliderState
from .errors import (
    AllDegenerateError,
    AnisotropicFrictionError,
    ContactLossError,
    DegenerateStepError,
    NoConvergenceError,
    OracleFailure,
    PatchSlideError,
    ScenarioParseError,
    ToppleRiskError,
    ValidationError,
    ZeroMotionError,
    ZeroSlipError,
)
from .oracle import oracle_solve_step, verify_kkt
from .scenario import Scenario, resolve_scenario
from .solver import SolverOptions, residual, solve_step_info
from .stepper import StepDiagnostics, TrajectoryRecord, assemble_inputs, ecp, simulate, warm_sigma
from .sysid import batch_estimate
from .trajectory import observed_steps, read_trajectory, write_plot_data, write_trajectory

__all__ = ["main"]

COMPARE_TOLERANCE = 1e-6

_VALIDATION_ERRORS = (
    ScenarioParseError,
    ValidationError,
    AllDegenerateError,
    DegenerateStepError,
    AnisotropicFrictionError,
    ZeroMotionError,
)
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


def _cmd_simulate(args: argparse.Namespace) -> int:
    scen = _load(args)
    t0 = time.perf_counter()
    records = simulate(scen)
    wall = time.perf_counter() - t0
    out = args.out or scen.options.output_path or "trajectory.csv"
    write_trajectory(records, out)
    print(_summary(records, planned=int(round(scen.duration / scen.h)), wall=wall))
    print(f"trajectory written to {out}")
    if args.plot_data:
        rows = read_trajectory(out)
        files = write_plot_data(rows, Path(out).with_suffix(""))
        print(f"plot data: {len(files)} files alongside {out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    scen = _load(args)
    opts = SolverOptions(sigma_min=scen.options.sigma_min)
    if args.solver_tol is not None:
        opts = replace(opts, tol=args.solver_tol)
    n_steps = int(round(scen.duration / scen.h))
    state = scen.initial
    # slip speeds of the last three steps, warm-started as simulate does
    s1 = s2 = s3 = 0.0
    max_dev = 0.0
    worst = -1
    kkt_failures = 0
    steps_done = 0
    m = scen.params.m
    I_z = scen.params.I_z
    for k in range(n_steps):
        try:
            inputs = assemble_inputs(state, scen)
            sol, info = solve_step_info(inputs, warm_sigma(s1, s2, s3), opts)
            ref = oracle_solve_step(inputs)
        except PatchSlideError as e:
            raise type(e)(f"step {k}: {e}") from e
        devs = [
            abs(sol.p_t - ref.p_t),
            abs(sol.p_o - ref.p_o),
            abs(sol.p_r - ref.p_r),
            abs((sol.p_t - ref.p_t)) / m,
            abs((sol.p_o - ref.p_o)) / m,
            abs((sol.p_r - ref.p_r)) / I_z,
        ]
        dev = max(devs)
        if dev > max_dev:
            max_dev = dev
            worst = k
        if not verify_kkt(sol, inputs, seed=args.seed).dissipation_optimality:
            kkt_failures += 1
        steps_done += 1
        # simulate stops on any rest flag, a slow-slip rest (0 < sigma < sigma_min) too
        if info.rest:
            break
        state = SliderState(
            q_x=state.q_x + scen.h * (state.v_x + (sol.p_t + inputs.applied.p_x) / m),
            q_y=state.q_y + scen.h * (state.v_y + (sol.p_o + inputs.applied.p_y) / m),
            theta_z=state.theta_z + scen.h * (state.w_z + (sol.p_r + inputs.applied.p_ztau) / I_z),
            v_x=state.v_x + (sol.p_t + inputs.applied.p_x) / m,
            v_y=state.v_y + (sol.p_o + inputs.applied.p_y) / m,
            w_z=state.w_z + (sol.p_r + inputs.applied.p_ztau) / I_z,
            t=state.t + scen.h,
        )
        s1, s2, s3 = sol.sigma, s1, s2
    print(
        f"steps {steps_done}  max_deviation {max_dev:.3e}"
        + (f" (step {worst})" if worst >= 0 else "")
        + f"  dissipation_check_failures {kkt_failures}"
    )
    if max_dev > COMPARE_TOLERANCE:
        print(f"FAIL: deviation exceeds {COMPARE_TOLERANCE:g}", file=sys.stderr)
        return 3
    print(f"OK: both solution paths agree within {COMPARE_TOLERANCE:g}")
    return 0


def _cmd_sysid(args: argparse.Namespace) -> int:
    rows = read_trajectory(args.trajectory)
    steps = observed_steps(rows)
    est = batch_estimate(steps, m=args.m, I_z=args.I_z, q_z=args.q_z, floor=args.floor)
    print(f"et2mu   = {est.et2mu:.10g}   (mad {est.dispersion[0]:.3e})  first-identity root, equals e_t*mu")
    print(f"ratio_o = {est.ratio_o:.10g}   (mad {est.dispersion[1]:.3e})  (e_o/e_t)^2; e_o/e_t = {est.ratio_o ** 0.5:.10g}")
    print(f"ratio_r = {est.ratio_r:.10g}   (mad {est.dispersion[2]:.3e})  (e_r/e_t)^2; e_r/e_t = {est.ratio_r ** 0.5:.10g}")
    print(f"steps used {len(est.per_step)} of {len(steps)} ({est.n_skipped} skipped)")
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    scen = _load(args)
    if scen.initial.w_z != 0.0:
        raise ValidationError("pure-translation rollout requires w_z = 0 initially")
    n_steps = int(round(scen.duration / scen.h))
    state = scen.initial
    records: list[TrajectoryRecord] = []
    t0 = time.perf_counter()
    for k in range(n_steps):
        inputs = assemble_inputs(state, scen)
        a = inputs.applied
        if a.p_xtau != 0.0 or a.p_ytau != 0.0 or a.p_ztau != 0.0:
            raise ValidationError(f"step {k}: pure-translation rollout requires a torque-free schedule")
        res = pure_translation_step(
            (state.v_x, state.v_y), (a.p_x, a.p_y), inputs.p_n, scen.friction, scen.params.m
        )
        v_x1, v_y1 = res.v_next
        state = SliderState(
            q_x=state.q_x + scen.h * v_x1,
            q_y=state.q_y + scen.h * v_y1,
            theta_z=state.theta_z,
            v_x=v_x1,
            v_y=v_y1,
            w_z=0.0,
            t=state.t + scen.h,
        )
        imp = ContactImpulse(p_t=res.p_t, p_o=res.p_o, p_r=0.0, sigma=res.sigma, p_n=inputs.p_n)
        point = ecp(scen.params, imp, a, (state.q_x, state.q_y, state.theta_z))
        rnorm = 0.0
        if not res.rest:
            rnorm = float(np.max(np.abs(residual((imp.p_t, imp.p_o, imp.p_r, imp.sigma), inputs))))
        records.append(
            TrajectoryRecord(
                state=state,
                impulses=imp,
                ecp=point,
                applied=a,
                diagnostics=StepDiagnostics(
                    newton_iters=0, residual_norm=rnorm, rest_flag=res.rest
                ),
            )
        )
        if res.rest:
            break
    wall = time.perf_counter() - t0
    out = args.out or scen.options.output_path or "trajectory.csv"
    write_trajectory(records, out)
    print(_summary(records, planned=n_steps, wall=wall))
    print(f"trajectory written to {out}")
    return 0


def _cmd_quasistatic(args: argparse.Namespace) -> int:
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


def _add_scenario_args(p: argparse.ArgumentParser, with_out: bool = False) -> None:
    p.add_argument("--scenario", required=True, help="scenario file path or bundled name")
    p.add_argument("--duration", type=float, default=None, help="override run duration (s)")
    p.add_argument("--h", type=float, default=None, help="override step length (s)")
    if with_out:
        p.add_argument("--out", default=None, help="trajectory CSV path (default trajectory.csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="patchslide", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario and write the trajectory CSV")
    _add_scenario_args(p, with_out=True)
    p.add_argument("--plot-data", action="store_true", help="emit per-column (t, value) files")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="run both solution paths and report deviations")
    _add_scenario_args(p)
    p.add_argument("--seed", type=int, default=0, help="seed for the dissipation sampling check")
    p.add_argument(
        "--solver-tol",
        type=float,
        default=None,
        help="diagnostic: override the solver tolerance, relative to (mu*p_n)^2",
    )
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
    except _VALIDATION_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except _SOLVER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
