"""Scenario files: a YAML document with six sections (slider, friction,
patch, initial, schedule, run) describing one simulation.

A section's keys, in order, and their defaults are the fields of the
value type it builds: slider (SliderParams without its patch), friction
(FrictionParams), initial (SliderState), each wrench (AppliedWrench),
annulus and disk patches, a body pusher's numbers, and run (the
Scenario's h and duration, then RunOptions).  Unknown keys are rejected at
every level so that typos fail loudly.

Loading a file, serializing the result, and loading the serialization
yields an identical Scenario.

Documents are parsed with libyaml's safe loader when PyYAML has it, the
pure-Python one otherwise.  loads_scenario builds the document from that
parser's event stream in one pass, as yaml.load would build it (dicts,
lists, and the str, float, int, bool and null values of the safe
constructor, each scalar tagged by the same resolver), without PyYAML's
Python composer and constructor.  A stream holding anything else (an
anchor or alias, another tag, a merge key, a collection key, a second
document) goes whole to yaml.load, so its result and its errors are
PyYAML's.  serialize_scenario builds the YAML event
stream straight from the value types and hands it to the emitter of the
same pair.  The stream is the one yaml.dump(..., sort_keys=False,
default_flow_style=None) makes of the document as nested dicts and
lists, so the text is byte for byte what yaml.dump writes.  A value
SafeRepresenter refuses (a numpy.float64 field, say) raises its
RepresenterError.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, field, fields
from functools import cache
from importlib import resources
from pathlib import Path

import yaml
from yaml.constructor import SafeConstructor
from yaml.events import (
    DocumentEndEvent,
    DocumentStartEvent,
    MappingEndEvent,
    MappingStartEvent,
    ScalarEvent,
    SequenceEndEvent,
    SequenceStartEvent,
    StreamEndEvent,
    StreamStartEvent,
)
from yaml.nodes import ScalarNode
from yaml.representer import RepresenterError

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
# the implicit tag rules both pairs read and write plain scalars by
_RESOLVER = yaml.resolver.Resolver()
_STR_TAG = "tag:yaml.org,2002:str"
_FLOAT_TAG = "tag:yaml.org,2002:float"
_INT_TAG = "tag:yaml.org,2002:int"
_BOOL_TAG = "tag:yaml.org,2002:bool"
_NULL_TAG = "tag:yaml.org,2002:null"
_MAP_TAG = "tag:yaml.org,2002:map"
_SEQ_TAG = "tag:yaml.org,2002:seq"


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
    options: RunOptions = RunOptions()
    impulses: tuple[AppliedImpulse, ...] = field(init=False, repr=False, compare=False)
    lambda_z: tuple[float, ...] = field(init=False, repr=False, compare=False)

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
        return BodyPusherSchedule(
            point_body=point,
            direction_body=(direction[0] / norm, direction[1] / norm),
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


# _load builds what yaml.load(text, Loader=_LOADER) returns in one pass over
# the parser's events, without PyYAML's Python composer and constructor:
# mappings become dicts, sequences lists, and each scalar gets the tag the
# composer gives it (its explicit tag, or _RESOLVER's for its text) and the
# value SafeConstructor builds for that tag.  A stream holding anything
# else goes whole to yaml.load, so its result and errors are PyYAML's: an
# anchor or alias, a tag other than str, float, int, bool and null (map and
# seq on a collection), a merge or value key, a collection key, a scalar
# its explicit tag does not fit, or a second document.
class _Unwalked(Exception):
    """The stream holds what only yaml.load builds."""


_CONSTRUCTOR = SafeConstructor()
# SafeConstructor's function for each scalar tag the walk builds
_EXPLICIT = {tag: SafeConstructor.yaml_constructors[tag]
             for tag in (_STR_TAG, _FLOAT_TAG, _INT_TAG, _BOOL_TAG, _NULL_TAG)}
_IMPLICIT_RULES = _RESOLVER.yaml_implicit_resolvers
# the tags of a mapping or sequence that the safe constructor builds as a
# plain dict or list
_MAP_TAGS = (None, "!", _MAP_TAG)
_SEQ_TAGS = (None, "!", _SEQ_TAG)


def _scalar_value(event: ScalarEvent):
    tag, text = event.tag, event.value
    if tag is not None and tag != "!":
        construct = _EXPLICIT.get(tag)
        if construct is None:
            raise _Unwalked
        try:
            return construct(_CONSTRUCTOR, ScalarNode(tag, text))
        except (LookupError, ValueError):  # !!bool maybe, !!int abc, !!float ''
            # yaml.load raises it too, but only once the stream is parsed
            raise _Unwalked from None
    # Resolver.resolve's tag: a plain scalar's is the first of _RESOLVER's
    # implicit rules for its first character that matches its text (the
    # safe loaders add no wildcard or path rules), any other's is str
    if not event.implicit[0]:
        return text
    for tag, regexp in _IMPLICIT_RULES.get(text[:1], ()):
        if regexp.match(text):
            break
    else:
        return text
    if tag == _FLOAT_TAG:
        # float() reads resolved float text as construct_yaml_float does,
        # except underscores, base 60, .inf and .nan
        if "_" in text or ":" in text or text[-1] in "fFnN":
            return _CONSTRUCTOR.construct_yaml_float(ScalarNode(tag, text))
        return float(text)
    if tag == _INT_TAG:
        # and int() resolved int text, except underscores, base 60, a sign
        # and a leading 0 (octal, 0b, 0x)
        if text.isdigit() and (text[0] != "0" or text == "0"):
            return int(text)
        return _CONSTRUCTOR.construct_yaml_int(ScalarNode(tag, text))
    if tag == _BOOL_TAG:
        return _CONSTRUCTOR.bool_values[text.lower()]
    if tag == _NULL_TAG:
        return None
    raise _Unwalked  # a timestamp, or the merge or value key


def _walk(event, events):
    # the value of the node that event starts; events yields the rest of it
    if event.anchor is not None:  # an anchor, or an alias
        raise _Unwalked
    kind = type(event)
    if kind is ScalarEvent:
        return _scalar_value(event)
    if kind is MappingStartEvent:
        if event.tag not in _MAP_TAGS:
            raise _Unwalked
        mapping = {}
        for event in events:
            if type(event) is MappingEndEvent:
                break
            if type(event) is not ScalarEvent:  # a collection or alias key
                raise _Unwalked
            key = _walk(event, events)
            mapping[key] = _walk(next(events), events)
        return mapping
    if event.tag not in _SEQ_TAGS:
        raise _Unwalked
    sequence = []
    for event in events:
        if type(event) is SequenceEndEvent:
            break
        sequence.append(_walk(event, events))
    return sequence


def _load(text: str):
    events = yaml.parse(text, Loader=_LOADER)
    try:
        doc = None
        seen = False
        # to the stream's end, as yaml.load reads it: an error after the
        # document still raises
        for event in events:
            if type(event) is DocumentStartEvent:
                if seen:
                    raise _Unwalked
                seen = True
                doc = _walk(next(events), events)
        return doc
    except _Unwalked:
        pass
    finally:
        events.close()
    return yaml.load(text, Loader=_LOADER)


_SECTIONS = {"slider", "friction", "patch", "initial", "schedule", "run"}
# run holds the Scenario's numbers and every RunOptions field
_RUN_FIELDS = fields(RunOptions)
_RUN_KEYS = _keys(Scenario, *(f.name for f in _RUN_FIELDS))


def loads_scenario(text: str, source: str = "<string>") -> Scenario:
    """Parse and validate a scenario document from a string."""
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
    except OSError as e:
        raise ScenarioParseError(f"cannot read scenario file {p}: {e}") from e
    return loads_scenario(text, source=str(p))


# serialize_scenario writes the event stream that yaml.dump(doc,
# Dumper=_DUMPER, sort_keys=False, default_flow_style=None) makes of the
# scenario as a dict of dicts, lists, floats and strs, building neither the
# dict nor its representation: SafeRepresenter's tags and scalar text,
# Serializer's implicit flags from the resolver, and flow style for a
# collection that holds only scalars.  The same emitter writes the text, so
# the bytes are the same.
# SafeRepresenter's tag for each other scalar type it takes; it refuses
# every other type, and a subclass too (numpy.float64, say)
_SCALAR_TAGS = {float: _FLOAT_TAG, int: _INT_TAG, bool: _BOOL_TAG}
# the implicit flags of a float, int or bool, whose text resolves to its tag
_PLAIN = (True, False)
_BLOCK_MAP = MappingStartEvent(None, _MAP_TAG, True, flow_style=False)
_FLOW_MAP = MappingStartEvent(None, _MAP_TAG, True, flow_style=True)
_MAP_END = MappingEndEvent()
_BLOCK_SEQ = SequenceStartEvent(None, _SEQ_TAG, True, flow_style=False)
_FLOW_SEQ = SequenceStartEvent(None, _SEQ_TAG, True, flow_style=True)
_SEQ_END = SequenceEndEvent()
_HEAD = (StreamStartEvent(), DocumentStartEvent(), _BLOCK_MAP)
_TAIL = (_MAP_END, DocumentEndEvent(), StreamEndEvent())


def _str_event(text: str) -> ScalarEvent:
    # plain-implicit unless the resolver reads the plain text as another
    # type (null, bool, int, float...)
    plain = _RESOLVER.resolve(ScalarNode, text, _PLAIN) == _STR_TAG
    return ScalarEvent(None, _STR_TAG, (plain, True), text)


# the event of a name the format fixes, a key or a type; emitters only read
# events, so one serves every document
_name = cache(_str_event)


def _scalar(value) -> ScalarEvent:
    kind = type(value)
    if kind is str:
        return _str_event(value)
    tag = _SCALAR_TAGS.get(kind)
    if tag is None:
        raise RepresenterError("cannot represent an object", value)
    if kind is not float:
        return ScalarEvent(None, tag, _PLAIN, str(value).lower())
    # SafeRepresenter.represent_float's text; the repr of a finite float has
    # no capital letter to lower
    if value - value != 0.0:
        text = ".nan" if value != value else ".inf" if value > 0.0 else "-.inf"
    else:
        text = repr(value)
        if "e" in text and "." not in text:  # 1e+16 is not a YAML 1.1 float
            text = text.replace("e", ".0e", 1)
    return ScalarEvent(None, tag, _PLAIN, text)


def _numbers(out: list, value, skip_zeros: bool = False) -> None:
    # the key and value events of value's number fields
    for name, _ in _number_fields(type(value)):
        v = getattr(value, name)
        if not (skip_zeros and v == 0.0):
            out += _name(name), _scalar(v)


def _number_map(out: list, key: str, value, skip_zeros: bool = False) -> None:
    out += _name(key), _FLOW_MAP
    _numbers(out, value, skip_zeros)
    out.append(_MAP_END)


def _flow_seq(out: list, values) -> None:
    out.append(_FLOW_SEQ)
    out += map(_scalar, values)
    out.append(_SEQ_END)


def _patch(out: list, p: ContactPatch) -> None:
    if isinstance(p, PolygonPatch):
        out += _BLOCK_MAP, _name("type"), _name("polygon"), _name("vertices"), _BLOCK_SEQ
        for v in p.vertices:
            _flow_seq(out, v)
        out.append(_SEQ_END)
    else:
        out += _FLOW_MAP, _name("type"), _name("annulus" if isinstance(p, AnnulusPatch) else "disk")
        _numbers(out, p)
    out.append(_MAP_END)


def _schedule(out: list, s: WrenchSchedule) -> None:
    out += _BLOCK_MAP, _name("type")
    if isinstance(s, ConstantSchedule):
        out.append(_name("constant"))
        _number_map(out, "wrench", s.wrench, skip_zeros=True)
    elif isinstance(s, BodyPusherSchedule):
        out += _name("body_pusher"), _name("point")
        _flow_seq(out, s.point_body)
        out.append(_name("direction"))
        _flow_seq(out, s.direction_body)
        _numbers(out, s)
    else:
        out += _name("table"), _name("rows"), _BLOCK_SEQ
        for t, w in zip(s.times, s.wrenches):
            out += _BLOCK_MAP, _name("t"), _scalar(t)
            _number_map(out, "wrench", w, skip_zeros=True)
            out.append(_MAP_END)
        out.append(_SEQ_END)
    out.append(_MAP_END)


def serialize_scenario(scen: Scenario) -> str:
    """Render a Scenario back to scenario-file text.  Loading the result
    reproduces the Scenario exactly (floats survive via repr)."""
    out = list(_HEAD)
    _number_map(out, "slider", scen.params)
    _number_map(out, "friction", scen.friction)
    out.append(_name("patch"))
    _patch(out, scen.params.patch)
    _number_map(out, "initial", scen.initial)
    out.append(_name("schedule"))
    _schedule(out, scen.schedule)
    out += _name("run"), _FLOW_MAP
    _numbers(out, scen)
    options = scen.options
    for f in _RUN_FIELDS:
        v = getattr(options, f.name)
        if v is not None:
            out += _name(f.name), _scalar(v)
    out.append(_MAP_END)
    out += _TAIL
    return yaml.emit(out, Dumper=_DUMPER)


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
