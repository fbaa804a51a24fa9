"""Scenario files: a YAML document with six sections (slider, friction,
patch, initial, schedule, run) describing one simulation.

Unknown keys are rejected at every level so that typos fail loudly.
Loading a file, serializing the result, and loading the serialization
yields an identical Scenario.
"""

from __future__ import annotations

import math
from dataclasses import field
from importlib import resources
from pathlib import Path

import yaml

from .core import (
    AnnulusPatch,
    AppliedImpulse,
    AppliedWrench,
    BodyPusherSchedule,
    ConstantSchedule,
    ContactPatch,
    DiskPatch,
    FrictionParams,
    PolygonPatch,
    SliderParams,
    SliderState,
    TableSchedule,
    WrenchSchedule,
    held_wrenches,
    impulse_over,
    value_type,
)
from .errors import ScenarioParseError, ValidationError

__all__ = [
    "RunOptions",
    "Scenario",
    "load_scenario",
    "loads_scenario",
    "serialize_scenario",
    "bundled_scenario_names",
    "bundled_scenario_text",
    "resolve_scenario",
]

# stiffness guard: the rotational friction equation degenerates as e_r -> 0
MIN_E_R = 1e-6

TOPPLE_POLICIES = ("warn", "error")

# libyaml's C parser and emitter when PyYAML was built with it; both keep
# the safe constructor, resolver and representer of safe_load/safe_dump
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


@value_type
class RunOptions:
    """Run-level knobs: rest threshold on slip speed, what to do when the
    contact point leaves the support hull, and an optional default output
    path for trajectories."""

    sigma_min: float = 1e-6
    topple_policy: str = "warn"
    output_path: str | None = None

    def __post_init__(self) -> None:
        if not (self.sigma_min > 0.0 and math.isfinite(self.sigma_min)):
            raise ValidationError("sigma_min must be positive")
        if self.topple_policy not in TOPPLE_POLICIES:
            raise ValidationError(
                f"topple_policy must be one of {TOPPLE_POLICIES}, got {self.topple_policy!r}"
            )


@value_type
class Scenario:
    """A complete, validated simulation description.  Derived from it:
    impulses and lambda_z, the step impulse and vertical force of each
    wrench of core.held_wrenches(schedule), indexed by core.hold_index."""

    params: SliderParams
    friction: FrictionParams
    initial: SliderState
    schedule: WrenchSchedule
    h: float
    duration: float
    options: RunOptions = field(default_factory=RunOptions)
    impulses: tuple[AppliedImpulse, ...] = field(init=False, repr=False, compare=False)
    lambda_z: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise ValidationError("step length h must be positive")
        if not (self.duration >= 0.0 and math.isfinite(self.duration)):
            raise ValidationError("duration must be nonnegative")
        if self.friction.e_r < MIN_E_R:
            raise ValidationError(f"e_r must be at least {MIN_E_R:g} m")
        s = self.initial
        if not all(map(math.isfinite, (s.q_x, s.q_y, s.theta_z, s.v_x, s.v_y, s.w_z, s.t))):
            raise ValidationError("initial state must be finite")
        # the solver squares the momentum in friction-ellipsoid units
        p, f = self.params, self.friction
        scaled = (p.m * s.v_x / f.e_t, p.m * s.v_y / f.e_o, p.I_z * s.w_z / f.e_r)
        if not math.isfinite(sum(x * x for x in scaled)):
            raise ValidationError("initial momentum is too large: its square overflows a double")
        # the rest test squares each step's applied impulse in the same
        # units, against (mu*p_n)^2: check every wrench the schedule gives
        # whatever the state
        wrenches = held_wrenches(self.schedule)
        h = self.h
        for w in wrenches:
            scaled = (h * w.lambda_x / f.e_t, h * w.lambda_y / f.e_o, h * w.lambda_ztau / f.e_r,
                      f.mu * h * (p.m * p.g - w.lambda_z))
            if not math.isfinite(sum(x * x for x in scaled)):
                raise ValidationError(
                    "applied load is too large: its impulse per step squared in "
                    "friction-ellipsoid units overflows a double"
                )
        object.__setattr__(self, "impulses", tuple(impulse_over(w, h) for w in wrenches))
        object.__setattr__(self, "lambda_z", tuple(w.lambda_z for w in wrenches))


def _check_keys(mapping: dict, allowed: set[str], context: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ValidationError(f"unknown key(s) {sorted(unknown)} in {context}")


def _as_map(value, context: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValidationError(f"{context} must be a mapping")
    return value


def _float(v: int | float, name: str) -> float:
    try:
        return float(v)
    except OverflowError:  # a YAML int beyond the double range
        raise ValidationError(f"{name} is out of range for a double") from None


def _num(mapping: dict, key: str, context: str, default: float | None = None) -> float:
    if key not in mapping:
        if default is None:
            raise ValidationError(f"missing required key {key!r} in {context}")
        return default
    v = mapping[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(f"{context}.{key} must be a number, got {v!r}")
    return _float(v, f"{context}.{key}")


def _num_list(value, n: int, context: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise ValidationError(f"{context} must be a list of {n} numbers")
    out = []
    for v in value:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValidationError(f"{context} must contain only numbers, got {v!r}")
        out.append(_float(v, context))
    return tuple(out)


def _parse_patch(section: dict) -> ContactPatch:
    kind = section.get("type")
    if kind == "polygon":
        _check_keys(section, {"type", "vertices"}, "patch")
        verts = section.get("vertices")
        if not isinstance(verts, list) or len(verts) < 3:
            raise ValidationError("patch.vertices must list at least 3 [x, y] pairs")
        return PolygonPatch(tuple(_num_list(v, 2, "patch.vertices entry") for v in verts))
    if kind == "annulus":
        _check_keys(section, {"type", "r_in", "r_out"}, "patch")
        return AnnulusPatch(r_in=_num(section, "r_in", "patch"), r_out=_num(section, "r_out", "patch"))
    if kind == "disk":
        _check_keys(section, {"type", "r"}, "patch")
        return DiskPatch(r=_num(section, "r", "patch"))
    raise ValidationError(f"patch.type must be polygon, annulus, or disk, got {kind!r}")


_WRENCH_KEYS = ("lambda_x", "lambda_y", "lambda_z", "lambda_xtau", "lambda_ytau", "lambda_ztau")


def _parse_wrench(section, context: str) -> AppliedWrench:
    m = _as_map(section, context)
    _check_keys(m, set(_WRENCH_KEYS), context)
    return AppliedWrench(**{k: _num(m, k, context, default=0.0) for k in _WRENCH_KEYS})


def _parse_schedule(section: dict) -> WrenchSchedule:
    kind = section.get("type")
    if kind == "constant":
        _check_keys(section, {"type", "wrench"}, "schedule")
        return ConstantSchedule(_parse_wrench(section.get("wrench"), "schedule.wrench"))
    if kind == "body_pusher":
        _check_keys(
            section,
            {"type", "point", "direction", "force_mean", "force_amp", "period"},
            "schedule",
        )
        point = _num_list(section.get("point"), 3, "schedule.point")
        direction = _num_list(section.get("direction"), 2, "schedule.direction")
        norm = math.hypot(*direction)
        if norm == 0.0:
            raise ValidationError("schedule.direction must be nonzero")
        return BodyPusherSchedule(
            point_body=point,
            direction_body=(direction[0] / norm, direction[1] / norm),
            force_mean=_num(section, "force_mean", "schedule"),
            force_amp=_num(section, "force_amp", "schedule", default=0.0),
            period=_num(section, "period", "schedule"),
        )
    if kind == "table":
        _check_keys(section, {"type", "rows"}, "schedule")
        rows = section.get("rows")
        if not isinstance(rows, list) or not rows:
            raise ValidationError("schedule.rows must be a nonempty list")
        times = []
        wrenches = []
        for i, row in enumerate(rows):
            rm = _as_map(row, f"schedule.rows[{i}]")
            _check_keys(rm, {"t", "wrench"}, f"schedule.rows[{i}]")
            times.append(_num(rm, "t", f"schedule.rows[{i}]"))
            wrenches.append(_parse_wrench(rm.get("wrench"), f"schedule.rows[{i}].wrench"))
        return TableSchedule(times=tuple(times), wrenches=tuple(wrenches))
    raise ValidationError(f"schedule.type must be constant, body_pusher, or table, got {kind!r}")


_SECTIONS = {"slider", "friction", "patch", "initial", "schedule", "run"}


def loads_scenario(text: str, source: str = "<string>") -> Scenario:
    """Parse and validate a scenario document from a string."""
    try:
        doc = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        where = f"{source}:{mark.line + 1}" if mark is not None else source
        raise ScenarioParseError(f"{where}: {e}") from e
    doc = _as_map(doc, "scenario document")
    _check_keys(doc, _SECTIONS, "scenario document")
    for required in ("slider", "friction", "patch", "run"):
        if required not in doc:
            raise ValidationError(f"missing required section {required!r}")

    slider = _as_map(doc["slider"], "slider")
    _check_keys(slider, {"m", "I_z", "q_z", "g"}, "slider")
    patch = _parse_patch(_as_map(doc["patch"], "patch"))
    params = SliderParams(
        m=_num(slider, "m", "slider"),
        I_z=_num(slider, "I_z", "slider"),
        q_z=_num(slider, "q_z", "slider"),
        g=_num(slider, "g", "slider", default=9.8),
        patch=patch,
    )

    fric = _as_map(doc["friction"], "friction")
    _check_keys(fric, {"mu", "e_t", "e_o", "e_r"}, "friction")
    friction = FrictionParams(
        mu=_num(fric, "mu", "friction"),
        e_t=_num(fric, "e_t", "friction"),
        e_o=_num(fric, "e_o", "friction"),
        e_r=_num(fric, "e_r", "friction"),
    )

    init = _as_map(doc.get("initial"), "initial")
    _check_keys(init, {"q_x", "q_y", "theta_z", "v_x", "v_y", "w_z", "t"}, "initial")
    initial = SliderState(
        q_x=_num(init, "q_x", "initial", default=0.0),
        q_y=_num(init, "q_y", "initial", default=0.0),
        theta_z=_num(init, "theta_z", "initial", default=0.0),
        v_x=_num(init, "v_x", "initial", default=0.0),
        v_y=_num(init, "v_y", "initial", default=0.0),
        w_z=_num(init, "w_z", "initial", default=0.0),
        t=_num(init, "t", "initial", default=0.0),
    )

    if "schedule" in doc:
        schedule = _parse_schedule(_as_map(doc["schedule"], "schedule"))
    else:
        schedule = ConstantSchedule(AppliedWrench.zero())

    run = _as_map(doc["run"], "run")
    _check_keys(run, {"h", "duration", "sigma_min", "topple_policy", "output_path"}, "run")
    policy = run.get("topple_policy", "warn")
    if not isinstance(policy, str):
        raise ValidationError("run.topple_policy must be a string")
    out_path = run.get("output_path")
    if out_path is not None and not isinstance(out_path, str):
        raise ValidationError("run.output_path must be a string")
    options = RunOptions(
        sigma_min=_num(run, "sigma_min", "run", default=1e-6),
        topple_policy=policy,
        output_path=out_path,
    )
    return Scenario(
        params=params,
        friction=friction,
        initial=initial,
        schedule=schedule,
        h=_num(run, "h", "run"),
        duration=_num(run, "duration", "run"),
        options=options,
    )


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise ScenarioParseError(f"cannot read scenario file {p}: {e}") from e
    return loads_scenario(text, source=str(p))


def _wrench_dict(w: AppliedWrench) -> dict:
    return {k: getattr(w, k) for k in _WRENCH_KEYS if getattr(w, k) != 0.0}


def _schedule_dict(s: WrenchSchedule) -> dict:
    if isinstance(s, ConstantSchedule):
        return {"type": "constant", "wrench": _wrench_dict(s.wrench)}
    if isinstance(s, BodyPusherSchedule):
        return {
            "type": "body_pusher",
            "point": list(s.point_body),
            "direction": list(s.direction_body),
            "force_mean": s.force_mean,
            "force_amp": s.force_amp,
            "period": s.period,
        }
    return {
        "type": "table",
        "rows": [{"t": t, "wrench": _wrench_dict(w)} for t, w in zip(s.times, s.wrenches)],
    }


def _patch_dict(p: ContactPatch) -> dict:
    if isinstance(p, PolygonPatch):
        return {"type": "polygon", "vertices": [list(v) for v in p.vertices]}
    if isinstance(p, AnnulusPatch):
        return {"type": "annulus", "r_in": p.r_in, "r_out": p.r_out}
    return {"type": "disk", "r": p.r}


def serialize_scenario(scen: Scenario) -> str:
    """Render a Scenario back to scenario-file text.  Loading the result
    reproduces the Scenario exactly (floats survive via repr)."""
    run: dict = {"h": scen.h, "duration": scen.duration, "sigma_min": scen.options.sigma_min,
                 "topple_policy": scen.options.topple_policy}
    if scen.options.output_path is not None:
        run["output_path"] = scen.options.output_path
    doc = {
        "slider": {
            "m": scen.params.m,
            "I_z": scen.params.I_z,
            "q_z": scen.params.q_z,
            "g": scen.params.g,
        },
        "friction": {
            "mu": scen.friction.mu,
            "e_t": scen.friction.e_t,
            "e_o": scen.friction.e_o,
            "e_r": scen.friction.e_r,
        },
        "patch": _patch_dict(scen.params.patch),
        "initial": {
            "q_x": scen.initial.q_x,
            "q_y": scen.initial.q_y,
            "theta_z": scen.initial.theta_z,
            "v_x": scen.initial.v_x,
            "v_y": scen.initial.v_y,
            "w_z": scen.initial.w_z,
            "t": scen.initial.t,
        },
        "schedule": _schedule_dict(scen.schedule),
        "run": run,
    }
    return yaml.dump(doc, Dumper=_DUMPER, sort_keys=False, default_flow_style=None)


def bundled_scenario_names() -> list[str]:
    """Names of the scenario files shipped with the package."""
    root = resources.files("patchslide").joinpath("scenarios")
    return sorted(p.name.removesuffix(".yaml") for p in root.iterdir() if p.name.endswith(".yaml"))


def bundled_scenario_text(name: str) -> str:
    res = resources.files("patchslide").joinpath("scenarios").joinpath(f"{name}.yaml")
    if not res.is_file():
        raise ScenarioParseError(
            f"no bundled scenario {name!r}; available: {bundled_scenario_names()}"
        )
    return res.read_text()


def resolve_scenario(ref: str) -> Scenario:
    """Load a scenario from a file path or, failing that, a bundled name."""
    p = Path(ref)
    if p.is_file():
        return load_scenario(p)
    return loads_scenario(bundled_scenario_text(ref), source=f"bundled:{ref}")
