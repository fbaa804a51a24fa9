"""Scenario files: a YAML document with six sections (slider, friction,
patch, initial, schedule, run) describing one simulation.

A section's keys, in order, and their defaults are the fields of the
value type it builds: slider (SliderParams without its patch), friction
(FrictionParams), initial (SliderState), each wrench (AppliedWrench),
annulus and disk patches, a body pusher's numbers, and run (the
Scenario's h and duration, then RunOptions).  Unknown keys are rejected at
every level so that typos fail loudly.

Serializing a Scenario and loading the text yields an equal Scenario.  A
file's body pusher direction is kept as written when BodyPusherSchedule
takes it as a unit vector, and divided by its length otherwise.

serialize_scenario writes the document as one JSON object, which YAML
reads as a flow mapping: YAML 1.2 takes JSON as a subset, and every float
is written with a "." so that YAML 1.1 reads it as a float too.
loads_scenario reads JSON text with json.loads; it hands any other text,
or JSON that is not an object, whole to yaml.load with the safe loader of
libyaml when PyYAML has it, of pure Python otherwise, so that its value
and its errors are PyYAML's.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, fields
from functools import cache
from importlib import resources
from pathlib import Path

import yaml

from .core import (
    AnnulusPatch,
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
    UNIT_TOL,
    WrenchSchedule,
    held_wrenches,
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

# libyaml's C parser when PyYAML was built with it, its pure-Python one
# otherwise; both keep the safe constructor and resolver of safe_load
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


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
    """A complete, validated simulation description."""

    params: SliderParams
    friction: FrictionParams
    initial: SliderState
    schedule: WrenchSchedule
    h: float
    duration: float
    options: RunOptions = RunOptions()

    def __post_init__(self) -> None:
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise ValidationError("step length h must be positive")
        if not (self.duration >= 0.0 and math.isfinite(self.duration)):
            raise ValidationError("duration must be nonnegative")
        if not math.isfinite(self.duration / self.h):
            raise ValidationError("duration / h, the step count, overflows a double")
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
        h = self.h
        for w in held_wrenches(self.schedule):
            scaled = (h * w.lambda_x / f.e_t, h * w.lambda_y / f.e_o, h * w.lambda_ztau / f.e_r,
                      f.mu * h * (p.m * p.g - w.lambda_z))
            if not math.isfinite(sum(x * x for x in scaled)):
                raise ValidationError(
                    "applied load is too large: its impulse per step squared in "
                    "friction-ellipsoid units overflows a double"
                )


# the file format's defaults for fields that have none in their value type
_FORMAT_DEFAULTS = {
    SliderParams: dict(g=9.8),
    SliderState: dict.fromkeys((f.name for f in fields(SliderState)), 0.0),
    BodyPusherSchedule: dict(force_amp=0.0),
}


@cache
def _number_fields(cls) -> tuple[tuple[str, object], ...]:
    # the number keys of a section that builds cls: its constructor's fields
    # annotated float, in field order, each with its default (MISSING when
    # the key is required)
    defaults = _FORMAT_DEFAULTS.get(cls, {})
    return tuple(
        (f.name, defaults.get(f.name, f.default))
        for f in fields(cls) if f.init and f.type == "float"
    )


@cache
def _keys(cls, *other: str) -> frozenset[str]:
    # the keys of a section that builds cls: its number fields and other
    return frozenset(name for name, _ in _number_fields(cls)).union(other)


def _check_keys(mapping: dict, allowed: frozenset[str] | set[str], context: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        # repr orders keys of any mix of types (1 and 'foo', None and 'bar')
        raise ValidationError(f"unknown key(s) {sorted(unknown, key=repr)} in {context}")


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


def _num(mapping: dict, key: str, context: str, default=MISSING) -> float:
    if key not in mapping:
        if default is MISSING:
            raise ValidationError(f"missing required key {key!r} in {context}")
        return default
    v = mapping[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(f"{context}.{key} must be a number, got {v!r}")
    return _float(v, f"{context}.{key}")


def _read(mapping: dict, cls, context: str) -> dict:
    # cls's number fields from a section whose keys have been checked
    return {k: _num(mapping, k, context, default) for k, default in _number_fields(cls)}


def _build(value, cls, context: str, *other: str):
    # cls from a section that holds its number fields and the keys in other
    mapping = _as_map(value, context)
    _check_keys(mapping, _keys(cls, *other), context)
    return cls(**_read(mapping, cls, context))


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
        return _build(section, AnnulusPatch, "patch", "type")
    if kind == "disk":
        return _build(section, DiskPatch, "patch", "type")
    raise ValidationError(f"patch.type must be polygon, annulus, or disk, got {kind!r}")


def _parse_schedule(section: dict) -> WrenchSchedule:
    kind = section.get("type")
    if kind == "constant":
        _check_keys(section, {"type", "wrench"}, "schedule")
        return ConstantSchedule(_build(section.get("wrench"), AppliedWrench, "schedule.wrench"))
    if kind == "body_pusher":
        _check_keys(section, _keys(BodyPusherSchedule, "type", "point", "direction"), "schedule")
        point = _num_list(section.get("point"), 3, "schedule.point")
        direction = _num_list(section.get("direction"), 2, "schedule.direction")
        norm = math.hypot(*direction)
        if norm == 0.0:
            raise ValidationError("schedule.direction must be nonzero")
        if abs(norm - 1.0) > UNIT_TOL:  # a unit direction is kept as written
            direction = (direction[0] / norm, direction[1] / norm)
        return BodyPusherSchedule(
            point_body=point,
            direction_body=direction,
            **_read(section, BodyPusherSchedule, "schedule"),
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
            wrenches.append(_build(rm.get("wrench"), AppliedWrench, f"schedule.rows[{i}].wrench"))
        return TableSchedule(times=tuple(times), wrenches=tuple(wrenches))
    raise ValidationError(f"schedule.type must be constant, body_pusher, or table, got {kind!r}")


def _load(text: str):
    # the stdlib's C parser reads JSON, which serialize_scenario writes;
    # any other text, or JSON that is not an object, goes whole to yaml.load
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError):
        pass
    else:
        if type(doc) is dict:
            return doc
    return yaml.load(text, Loader=_LOADER)


_SECTIONS = {"slider", "friction", "patch", "initial", "schedule", "run"}
# run holds the Scenario's numbers and every RunOptions field
_RUN_FIELDS = fields(RunOptions)
_RUN_KEYS = _keys(Scenario, *(f.name for f in _RUN_FIELDS))


def loads_scenario(text: str, source: str = "<string>") -> Scenario:
    """Parse and validate a scenario document from a string.  A JSON
    object, which serialize_scenario writes, is read with json.loads; any
    other text goes through yaml.load with the safe loader, so that its
    values and its errors are PyYAML's."""
    try:
        doc = _load(text)
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
    _check_keys(slider, _keys(SliderParams), "slider")
    patch = _parse_patch(_as_map(doc["patch"], "patch"))
    params = SliderParams(**_read(slider, SliderParams, "slider"), patch=patch)
    friction = _build(doc["friction"], FrictionParams, "friction")
    initial = _build(doc.get("initial"), SliderState, "initial")

    if "schedule" in doc:
        schedule = _parse_schedule(_as_map(doc["schedule"], "schedule"))
    else:
        schedule = ConstantSchedule(AppliedWrench.zero())

    # the text fields are checked before any number is read
    run = _as_map(doc["run"], "run")
    _check_keys(run, _RUN_KEYS, "run")
    texts = {}
    for f in _RUN_FIELDS:
        if f.type != "float":
            v = texts[f.name] = run.get(f.name, f.default)
            if not isinstance(v, str) and not (v is None and f.default is None):
                raise ValidationError(f"run.{f.name} must be a string")
    options = RunOptions(**_read(run, RunOptions, "run"), **texts)
    return Scenario(
        params=params,
        friction=friction,
        initial=initial,
        schedule=schedule,
        options=options,
        **_read(run, Scenario, "run"),
    )


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file."""
    p = Path(path)
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ScenarioParseError(f"cannot read scenario file {p}: {e}") from e
    return loads_scenario(text, source=str(p))


def _float_text(value: float) -> str:
    # SafeRepresenter.represent_float's text, which json.loads reads too when
    # value is finite: the repr of a finite float has no capital letter to
    # lower
    if value - value != 0.0:
        return ".nan" if value != value else ".inf" if value > 0.0 else "-.inf"
    text = repr(value)
    if "e" in text and "." not in text:  # 1e+16 is not a YAML 1.1 float
        text = text.replace("e", ".0e", 1)
    return text


def _numbers(value, skip_zeros: bool = False) -> dict:
    # value's number fields by name, less those at zero when skip_zeros
    numbers = {name: getattr(value, name) for name, _ in _number_fields(type(value))}
    if skip_zeros:
        return {name: v for name, v in numbers.items() if v != 0.0}
    return numbers


def _document(scen: Scenario) -> dict:
    # the scenario file as nested dicts and lists
    patch, schedule = scen.params.patch, scen.schedule
    if isinstance(patch, PolygonPatch):
        patch = {"type": "polygon", "vertices": [list(v) for v in patch.vertices]}
    else:
        patch = {"type": "annulus" if isinstance(patch, AnnulusPatch) else "disk", **_numbers(patch)}
    if isinstance(schedule, ConstantSchedule):
        schedule = {"type": "constant", "wrench": _numbers(schedule.wrench, skip_zeros=True)}
    elif isinstance(schedule, BodyPusherSchedule):
        schedule = {"type": "body_pusher", "point": list(schedule.point_body),
                    "direction": list(schedule.direction_body), **_numbers(schedule)}
    else:
        schedule = {"type": "table", "rows": [{"t": t, "wrench": _numbers(w, skip_zeros=True)}
                                              for t, w in zip(schedule.times, schedule.wrenches)]}
    run = _numbers(scen)
    for f in _RUN_FIELDS:
        v = getattr(scen.options, f.name)
        if v is not None:
            run[f.name] = v
    return {"slider": _numbers(scen.params), "friction": _numbers(scen.friction), "patch": patch,
            "initial": _numbers(scen.initial), "schedule": schedule, "run": run}


def _json(value) -> str:
    # value as JSON text, which YAML 1.1 reads to the same value too (but a
    # str beyond the BMP): every float in _float_text's form, whose "."
    # makes it a YAML float
    if isinstance(value, float):
        return _float_text(float(value))
    if type(value) is dict:
        return "{" + ", ".join(f"{json.dumps(k)}: {_json(v)}" for k, v in value.items()) + "}"
    if type(value) is list:
        return "[" + ", ".join(map(_json, value)) + "]"
    return json.dumps(value)  # a str, None, a bool or an int; TypeError otherwise


def serialize_scenario(scen: Scenario) -> str:
    """Render a Scenario as scenario-file text: one JSON object, which is
    also a YAML flow mapping.  Loading the result reproduces the Scenario
    exactly (floats survive via repr)."""
    return _json(_document(scen)) + "\n"


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
