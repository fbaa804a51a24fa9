"""Scenario documents: bundled examples, strict parsing, validation, and
serialization round trips."""

import dataclasses
import json
import math
import random
import re
from pathlib import Path

import pytest
import yaml

from patchslide import scenario as scenario_module
from patchslide import (
    AnnulusPatch,
    AppliedWrench,
    BodyPusherSchedule,
    ConstantSchedule,
    DiskPatch,
    PolygonPatch,
    RunOptions,
    Scenario,
    ScenarioParseError,
    TableSchedule,
    ValidationError,
    bundled_scenario_names,
    bundled_scenario_text,
    load_scenario,
    loads_scenario,
    resolve_scenario,
    serialize_scenario,
)

MINIMAL = """
slider: {m: 0.5, I_z: 5.0e-4, q_z: 0.08}
friction: {mu: 0.31, e_t: 1.0, e_o: 1.0, e_r: 0.01}
patch:
  type: polygon
  vertices: [[-0.025, -0.025], [0.025, -0.025], [0.025, 0.025], [-0.025, 0.025]]
initial: {v_x: 0.7, v_y: 0.9, w_z: 10.0}
run: {h: 0.01, duration: 0.45}
"""


def reload(text_or_scenario):
    if isinstance(text_or_scenario, Scenario):
        return loads_scenario(serialize_scenario(text_or_scenario))
    return loads_scenario(text_or_scenario)


# ------------------------------------------------------------------- bundled

def test_bundled_names():
    assert bundled_scenario_names() == ["example1", "example2", "example3"]


def test_bundled_example1_parameters(ex1_scenario):
    s = ex1_scenario
    assert (s.params.m, s.params.I_z, s.params.q_z, s.params.g) == (0.5, 5e-4, 0.08, 9.8)
    assert (s.friction.mu, s.friction.e_t, s.friction.e_o, s.friction.e_r) == (0.31, 1.0, 1.0, 0.01)
    assert isinstance(s.params.patch, PolygonPatch)
    assert s.params.patch.vertices == (
        (-0.025, -0.025), (0.025, -0.025), (0.025, 0.025), (-0.025, 0.025),
    )
    assert (s.initial.v_x, s.initial.v_y, s.initial.w_z) == (0.7, 0.9, 10.0)
    assert (s.initial.q_x, s.initial.q_y, s.initial.theta_z, s.initial.t) == (0, 0, 0, 0)
    assert isinstance(s.schedule, ConstantSchedule)
    assert s.schedule.wrench == AppliedWrench.zero()
    assert (s.h, s.duration) == (0.01, 0.45)


def test_bundled_example2_parameters(ex2_scenario):
    s = ex2_scenario
    assert (s.params.m, s.params.I_z, s.params.q_z) == (1.0, 2.6e-4, 0.08)
    assert isinstance(s.params.patch, AnnulusPatch)
    assert (s.params.patch.r_in, s.params.patch.r_out) == (0.05, 0.1)
    assert (s.initial.v_x, s.initial.v_y, s.initial.w_z) == (1.3, 0.8, 11.0)
    assert (s.h, s.duration) == (0.01, 0.65)


def test_bundled_example3_parameters(ex3_scenario):
    s = ex3_scenario
    assert (s.params.m, s.params.I_z, s.params.q_z) == (0.5, 5e-4, 0.08)
    sched = s.schedule
    assert isinstance(sched, BodyPusherSchedule)
    assert sched.point_body == (-0.025, -0.0025, 0.0)
    assert sched.direction_body == (1.0, 0.0)
    assert (sched.force_mean, sched.force_amp, sched.period) == (2.2, 2.0, 0.1)
    assert (s.initial.v_x, s.initial.v_y, s.initial.w_z) == (0.2, 0.3, 0.0)
    assert (s.h, s.duration) == (0.01, 3.0)


def test_bundled_text_unknown_name():
    with pytest.raises(ScenarioParseError, match="example1"):
        bundled_scenario_text("nope")


def test_resolve_scenario_path_and_bundled(tmp_path, ex1_scenario):
    p = tmp_path / "local.yaml"
    p.write_text(serialize_scenario(ex1_scenario))
    assert resolve_scenario(str(p)) == ex1_scenario
    assert resolve_scenario("example1") == ex1_scenario
    with pytest.raises(ScenarioParseError):
        resolve_scenario("missing_name")


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ScenarioParseError, match="cannot read"):
        load_scenario(tmp_path / "absent.yaml")


# ----------------------------------------------------------------- round trip

def test_serialize_round_trip_bundled(ex1_scenario, ex2_scenario, ex3_scenario):
    for scen in (ex1_scenario, ex2_scenario, ex3_scenario):
        assert reload(scen) == scen


def test_serialize_round_trip_table_schedule_and_options():
    base = loads_scenario(MINIMAL)
    scen = dataclasses.replace(
        base,
        schedule=TableSchedule(
            times=(0.0, 0.1),
            wrenches=(
                AppliedWrench.zero(),
                AppliedWrench(lambda_x=1.25, lambda_ztau=-0.375),
            ),
        ),
        options=RunOptions(sigma_min=1e-7, topple_policy="error", output_path="out.csv"),
    )
    again = reload(scen)
    assert again == scen
    assert again.options.output_path == "out.csv"


def test_serialize_preserves_awkward_floats():
    base = loads_scenario(MINIMAL)
    scen = dataclasses.replace(base, h=0.1 / 3.0, duration=math.pi / 10.0)
    assert reload(scen) == scen


# ----------------------------------------------------------------- validation

def test_minimal_defaults():
    s = loads_scenario(MINIMAL)
    assert s.params.g == 9.8
    assert isinstance(s.schedule, ConstantSchedule)
    assert s.schedule.wrench == AppliedWrench.zero()
    assert s.options == RunOptions()


@pytest.mark.parametrize("mutation, message", [
    ("slider: {m: 0.5, I_z: 5.0e-4, q_z: 0.08, typo: 1}", "unknown key"),
    ("friction: {mu: 0.31, e_t: 1.0, e_o: 1.0, e_r: 0.01, extra: 2}", "unknown key"),
    ("initial: {v_x: 0.7, vy: 0.9}", "unknown key"),
    ("run: {h: 0.01, duration: 0.45, color: red}", "unknown key"),
])
def test_unknown_keys_rejected_per_section(mutation, message):
    key = mutation.split(":", 1)[0]
    lines = [ln for ln in MINIMAL.splitlines() if not ln.startswith(key)]
    # drop continuation lines of replaced block (only flat sections replaced)
    with pytest.raises(ValidationError, match=message):
        loads_scenario("\n".join(lines) + "\n" + mutation)


def test_unknown_top_level_section_rejected():
    with pytest.raises(ValidationError, match="unknown key"):
        loads_scenario(MINIMAL + "\nextras: {}\n")


def test_unknown_patch_and_schedule_keys_rejected():
    with pytest.raises(ValidationError, match="unknown key"):
        loads_scenario(MINIMAL.replace(
            "type: polygon", "type: polygon\n  rounded: true"))
    with_sched = MINIMAL + """
schedule:
  type: body_pusher
  point: [-0.025, 0.0, 0.0]
  direction: [1.0, 0.0]
  force_mean: 2.0
  period: 0.1
  phase: 0.3
"""
    with pytest.raises(ValidationError, match="unknown key"):
        loads_scenario(with_sched)


@pytest.mark.parametrize("needle, repl, message", [
    ("h: 0.01", "h: 0.0", "h must be positive"),
    ("h: 0.01", "h: -0.01", "h must be positive"),
    ("duration: 0.45", "duration: -1.0", "duration must be nonnegative"),
    ("e_r: 0.01", "e_r: 1.0e-7", "e_r must be at least"),
    ("m: 0.5", "m: 0.0", "mass must be positive"),
    ("mu: 0.31", "mu: -0.1", "friction coefficient"),
    ("m: 0.5", "m: heavy", "must be a number"),
    ("v_x: 0.7", "v_x: true", "must be a number"),
    # YAML ints too large for float()
    ("m: 0.5", "m: 1" + "0" * 400, r"slider\.m is out of range for a double"),
    ("[0.025, 0.025]", "[1" + "0" * 400 + ", 0.025]", r"patch\.vertices entry is out of range for a double"),
    ("m: 0.5, ", "", "missing required key 'm' in slider"),
    ("[0.025, 0.025]", "[0.025, wide]", r"patch\.vertices entry must contain only numbers"),
    ("duration: 0.45", "duration: 0.45, topple_policy: 3", r"run\.topple_policy must be a string"),
])
def test_bad_values_rejected(needle, repl, message):
    with pytest.raises(ValidationError, match=message):
        loads_scenario(MINIMAL.replace(needle, repl))


@pytest.mark.parametrize("section", ["slider", "friction", "patch", "run"])
def test_missing_required_sections(section):
    lines = MINIMAL.splitlines()
    out = []
    skip = False
    for ln in lines:
        if ln.startswith(section + ":"):
            skip = True
            continue
        if skip and ln.startswith(("  ", "\t")):
            continue
        skip = False
        out.append(ln)
    with pytest.raises(ValidationError, match=f"missing required section '{section}'"):
        loads_scenario("\n".join(out))


WRENCH_KEYS = ["lambda_x", "lambda_y", "lambda_z", "lambda_xtau", "lambda_ytau", "lambda_ztau"]
# every key of every section, in the order serialize_scenario writes them
FULL_DOCUMENTS = [
    {
        "slider": {"m": 0.5, "I_z": 5.0e-4, "q_z": 0.08, "g": 9.8},
        "friction": {"mu": 0.31, "e_t": 1.0, "e_o": 1.0, "e_r": 0.01},
        "patch": {"type": "annulus", "r_in": 0.01, "r_out": 0.05},
        "initial": {"q_x": 0.1, "q_y": 0.2, "theta_z": 0.3, "v_x": 0.7, "v_y": 0.9, "w_z": 10.0, "t": 0.5},
        "schedule": {"type": "table", "rows": [{"t": 0.0, "wrench": dict.fromkeys(WRENCH_KEYS, 1.0)}]},
        "run": {"h": 0.01, "duration": 0.45, "sigma_min": 1.0e-6, "topple_policy": "warn",
                "output_path": "out.csv"},
    },
    {"patch": {"type": "disk", "r": 0.05},
     "schedule": {"type": "constant", "wrench": dict.fromkeys(WRENCH_KEYS, 1.0)}},
    {"schedule": {"type": "body_pusher", "point": [0.0, 0.0, 0.0], "direction": [1.0, 0.0],
                  "force_mean": 1.0, "force_amp": 0.5, "period": 0.1}},
]


@pytest.mark.parametrize("changed", FULL_DOCUMENTS, ids=["annulus-table", "disk-constant", "pusher"])
def test_section_keys_are_pinned(changed):
    # the keys come from the fields of each section's value type: renaming
    # a field must not change the file format unnoticed
    doc = {**FULL_DOCUMENTS[0], **changed}
    written = yaml.safe_load(serialize_scenario(loads_scenario(yaml.safe_dump(doc))))
    # equal, and in the same order at every level
    assert yaml.safe_dump(written, sort_keys=False) == yaml.safe_dump(doc, sort_keys=False)
    for section in ("slider", "friction", "initial", "run"):
        typo = {**doc, section: {**doc[section], "typo": 1}}
        with pytest.raises(ValidationError, match=rf"unknown key\(s\) \['typo'\] in {section}"):
            loads_scenario(yaml.safe_dump(typo))


def test_initial_section_is_optional():
    lines = [ln for ln in MINIMAL.splitlines() if not ln.startswith("initial")]
    s = loads_scenario("\n".join(lines))
    assert (s.initial.v_x, s.initial.v_y, s.initial.w_z) == (0.0, 0.0, 0.0)


def test_patch_validation():
    with pytest.raises(ValidationError, match="patch.type"):
        loads_scenario(MINIMAL.replace("type: polygon", "type: blob"))
    short = MINIMAL.replace(
        "vertices: [[-0.025, -0.025], [0.025, -0.025], [0.025, 0.025], [-0.025, 0.025]]",
        "vertices: [[-0.025, -0.025], [0.025, -0.025]]",
    )
    with pytest.raises(ValidationError, match="at least 3"):
        loads_scenario(short)
    bad_pair = MINIMAL.replace("[-0.025, 0.025]]", "[-0.025, 0.025, 0.0]]")
    with pytest.raises(ValidationError, match="list of 2"):
        loads_scenario(bad_pair)
    with pytest.raises(ValidationError, match="r_out"):
        loads_scenario(MINIMAL.replace(
            "type: polygon\n  vertices: [[-0.025, -0.025], [0.025, -0.025], [0.025, 0.025], [-0.025, 0.025]]",
            "type: annulus\n  r_in: 0.1\n  r_out: 0.05",
        ))


def test_schedule_validation():
    zero_dir = MINIMAL + """
schedule:
  type: body_pusher
  point: [0.0, 0.0, 0.0]
  direction: [0.0, 0.0]
  force_mean: 1.0
  period: 0.1
"""
    with pytest.raises(ValidationError, match="direction must be nonzero"):
        loads_scenario(zero_dir)
    empty_table = MINIMAL + "\nschedule: {type: table, rows: []}\n"
    with pytest.raises(ValidationError, match="nonempty"):
        loads_scenario(empty_table)
    with pytest.raises(ValidationError, match="schedule.type"):
        loads_scenario(MINIMAL + "\nschedule: {type: rocket}\n")


def test_pusher_direction_is_normalized():
    text = MINIMAL + """
schedule:
  type: body_pusher
  point: [-0.025, 0.0, 0.0]
  direction: [3.0, 4.0]
  force_mean: 2.0
  period: 0.1
"""
    s = loads_scenario(text)
    assert s.schedule.direction_body == (0.6, 0.8)
    # a direction BodyPusherSchedule takes as a unit vector is kept as
    # written, though dividing by its length would move it
    near = loads_scenario(text.replace("[3.0, 4.0]", "[1.000000000001, 1.0e-07]"))
    assert near.schedule.direction_body == (1.000000000001, 1e-07)
    assert math.hypot(*near.schedule.direction_body) != 1.0


def test_run_options_validation():
    with pytest.raises(ValidationError, match="sigma_min"):
        loads_scenario(MINIMAL.replace("duration: 0.45", "duration: 0.45, sigma_min: 0.0"))
    with pytest.raises(ValidationError, match="topple_policy"):
        loads_scenario(MINIMAL.replace("duration: 0.45", "duration: 0.45, topple_policy: ignore"))
    with pytest.raises(ValidationError, match="output_path"):
        loads_scenario(MINIMAL.replace("duration: 0.45", "duration: 0.45, output_path: 7"))
    s = loads_scenario(MINIMAL.replace(
        "duration: 0.45", "duration: 0.45, topple_policy: error, output_path: runs/a.csv"))
    assert s.options.topple_policy == "error"
    assert s.options.output_path == "runs/a.csv"


def test_yaml_errors_carry_location():
    bad = "slider: {m: 0.5\nfriction: {}\n"
    with pytest.raises(ScenarioParseError, match=r"<string>:\d+"):
        loads_scenario(bad)


def test_non_mapping_document_rejected():
    with pytest.raises(ValidationError, match="must be a mapping"):
        loads_scenario("- 1\n- 2\n")
    with pytest.raises(ValidationError, match="must be a mapping"):
        loads_scenario("slider: 5\n" + "\n".join(
            ln for ln in MINIMAL.splitlines() if not ln.startswith("slider")))


# ------------------------------------------------------------ applied loads

@pytest.mark.parametrize("schedule, message", [
    ("{type: constant, wrench: {lambda_x: .inf}}", "constant wrench must be finite"),
    ("{type: constant, wrench: {lambda_x: .nan}}", "constant wrench must be finite"),
    ("{type: constant, wrench: {lambda_z: .nan}}", "constant wrench must be finite"),
    ("{type: table, rows: [{t: .nan}]}", "table times must be finite"),
    ("{type: table, rows: [{t: 0.0}, {t: .inf}]}", "table times must be finite"),
    ("{type: table, rows: [{t: 0.0, wrench: {lambda_ztau: -.inf}}]}", "table wrenches must be finite"),
    ("{type: body_pusher, point: [0.0, 0.0, 0.0], direction: [1.0, 0.0], force_mean: 1.0, period: .inf}",
     "pusher period must be finite"),
])
def test_non_finite_applied_loads_rejected_at_load(schedule, message):
    with pytest.raises(ValidationError, match=message):
        loads_scenario(MINIMAL + f"\nschedule: {schedule}\n")


@pytest.mark.parametrize("schedule", [
    "{type: constant, wrench: {lambda_ztau: 1.0e+308}}",
    "{type: constant, wrench: {lambda_z: -1.0e+308}}",
    "{type: table, rows: [{t: 0.0}, {t: 5.0, wrench: {lambda_y: 1.0e+200}}]}",
], ids=["torque", "normal", "late-table-row"])
def test_finite_loads_that_overflow_when_squared_rejected_at_load(schedule):
    # finite, but the per-step impulse squared in friction-ellipsoid units
    # is not: the rest test could not be made
    with pytest.raises(ValidationError, match="applied load is too large"):
        loads_scenario(MINIMAL + f"\nschedule: {schedule}\n")


def test_large_but_squarable_load_still_loads():
    scen = loads_scenario(MINIMAL + "\nschedule: {type: constant, wrench: {lambda_x: 1.0e+150}}\n")
    assert scen.schedule.wrench.lambda_x == 1e150


# ------------------------------------------------- libyaml and pure Python

YAML_PATHS = {"libyaml": getattr(yaml, "CSafeLoader", None), "pure": yaml.SafeLoader}


def test_libyaml_is_used_when_available(monkeypatch):
    if not yaml.__with_libyaml__:
        pytest.skip("PyYAML built without libyaml")
    assert scenario_module._LOADER is YAML_PATHS["libyaml"]
    # and text other than a JSON object goes through it: MINIMAL's, but not
    # serialize_scenario's, even with an output path that YAML would quote
    used = []

    class Loader(scenario_module._LOADER):
        def __init__(self, stream):
            used.append("load")
            super().__init__(stream)

    monkeypatch.setattr(scenario_module, "_LOADER", Loader)
    scen = dataclasses.replace(loads_scenario(MINIMAL), options=RunOptions(output_path="a: b"))
    assert reload(scen) == scen
    assert used == ["load"]


def _under(path: str, fn, *args):
    """fn(*args) with scenario parsing on one YAML path."""
    loader = YAML_PATHS[path]
    if loader is None:
        pytest.skip("PyYAML built without libyaml")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario_module, "_LOADER", loader)
        return fn(*args)


def _parity_scenarios() -> list[Scenario]:
    base = loads_scenario(MINIMAL)
    return [resolve_scenario(name) for name in bundled_scenario_names()] + [
        dataclasses.replace(base, schedule=TableSchedule(
            times=(0.0, 0.1, 0.25),
            wrenches=(
                AppliedWrench(lambda_x=0.1 / 3.0),
                AppliedWrench.zero(),
                AppliedWrench(lambda_y=-1e-300, lambda_z=2.5, lambda_ztau=math.pi),
            ),
        )),
        dataclasses.replace(base, params=dataclasses.replace(
            base.params, patch=AnnulusPatch(r_in=0.0, r_out=0.05))),
        dataclasses.replace(base, params=dataclasses.replace(base.params, patch=DiskPatch(r=0.04))),
        dataclasses.replace(base, options=RunOptions(output_path="runs/with space: colon.csv")),
    ]


@pytest.mark.parametrize("path", sorted(YAML_PATHS))
def test_round_trip_under_each_yaml_path(path):
    for scen in _parity_scenarios():
        assert _under(path, reload, scen) == scen


@pytest.mark.parametrize("path", sorted(YAML_PATHS))
def test_fuzz_scenarios_survive_a_round_trip(path):
    """serialize -> load is the identity on the fuzz corpus, also with an
    output path that YAML would quote."""
    from test_fuzz import fuzz_scenarios

    for _, _, scen in fuzz_scenarios():
        quoted = dataclasses.replace(scen, options=dataclasses.replace(scen.options, output_path="a: b"))
        assert _under(path, reload, scen) == scen
        assert _under(path, reload, quoted) == quoted


def test_both_yaml_paths_load_the_same_scenarios():
    for name in bundled_scenario_names():
        text = bundled_scenario_text(name)
        assert repr(_under("libyaml", loads_scenario, text)) == repr(_under("pure", loads_scenario, text))


# ------------------------------------------------- serialize_scenario's text

# output paths the resolver reads as another type, that need quoting or
# escaping, and a long one
AWKWARD_PATHS = ("", "null", "1.5", "yes", "a: b", "#x", "it's", "é", 'say "hi"\\now\t\n',
                 "runs/a directory with spaces/" + "and a long file name " * 4 + "out.csv")


def _awkward_scenarios() -> list[Scenario]:
    base = loads_scenario(MINIMAL)
    square = base.params.patch.vertices
    edges = dataclasses.replace(
        base,
        params=dataclasses.replace(base.params, patch=PolygonPatch(square[:3] + ((-0.0, 0.025),))),
        # floats whose repr has an exponent, no fraction, a sign, or 17 digits
        initial=dataclasses.replace(base.initial, q_x=1e308, q_y=5e-324, theta_z=-0.0, v_x=0.1 / 3.0,
                                    t=1e16),
        schedule=ConstantSchedule(AppliedWrench(lambda_x=-0.0, lambda_y=1e16, lambda_ztau=5e-324)),
        options=RunOptions(sigma_min=5e-324),
    )
    return [edges] + [dataclasses.replace(base, options=RunOptions(output_path=path)) for path in AWKWARD_PATHS]


@pytest.mark.parametrize("path", sorted(YAML_PATHS))
def test_serialized_text_round_trips_and_yaml_reads_it_as_json_does(path):
    """serialize -> load is the identity on the parity, fuzz and awkward
    corpora, and YAML reads each text to json.loads's values and types: a
    float always has a "." and, with an exponent, a signed one, so YAML 1.1
    reads it as a float."""
    from test_fuzz import fuzz_scenarios

    corpus = _parity_scenarios() + _awkward_scenarios() + [scen for _, _, scen in fuzz_scenarios()]
    for scen in corpus:
        text = serialize_scenario(scen)
        assert _under(path, loads_scenario, text) == scen
        assert _same(yaml.load(text, YAML_PATHS[path]), json.loads(text)), text
    # ints and a bool, which the value types take as they are, are written
    # as JSON writes them, and YAML reads them alike too
    base = loads_scenario(MINIMAL)
    other_types = dataclasses.replace(
        base, h=1, duration=3, initial=dataclasses.replace(base.initial, w_z=-2, theta_z=True))
    text = serialize_scenario(other_types)
    assert '"h": 1, "duration": 3' in text and '"theta_z": true' in text
    assert _same(yaml.load(text, YAML_PATHS[path]), json.loads(text))


def test_strings_beyond_the_bmp_round_trip_through_json():
    # json.dumps writes them as \u escapes of UTF-16 surrogates, which
    # json.loads joins again; libyaml refuses them and pure PyYAML reads each
    # escape as a character of its own, so these are left out of the corpus
    # YAML reads above
    base = loads_scenario(MINIMAL)
    for path in ("runs/\U0001F600.csv", "\ud800x"):
        scen = dataclasses.replace(base, options=RunOptions(output_path=path))
        text = serialize_scenario(scen)
        assert text.isascii()
        assert reload(text).options.output_path == path


SAFE_DUMPERS = {"libyaml": getattr(yaml, "CSafeDumper", None), "pure": yaml.SafeDumper}


@pytest.mark.parametrize("path", sorted(SAFE_DUMPERS))
def test_serialize_refuses_what_safe_representer_refuses(path):
    """A value yaml's safe representer refuses under either dumper is refused
    by serialize_scenario too, with json's TypeError; a float subclass, which
    the representer also refuses, is the one exception: it is written as its
    float value and loads back as a float."""
    np = pytest.importorskip("numpy")
    dumper = SAFE_DUMPERS[path]
    if dumper is None:
        pytest.skip("PyYAML built without libyaml")
    base = loads_scenario(MINIMAL)
    vertices = tuple((np.float64(x), y) for x, y in base.params.patch.vertices)
    refused = dataclasses.replace(base, options=RunOptions(output_path=Path("out.csv")))
    float_subclasses = (
        dataclasses.replace(base, h=np.float64(0.01)),
        dataclasses.replace(base, params=dataclasses.replace(base.params, patch=PolygonPatch(vertices))),
    )
    for scen in (refused, *float_subclasses):
        with pytest.raises(yaml.representer.RepresenterError):
            yaml.dump(scenario_module._document(scen), Dumper=dumper)
    with pytest.raises(TypeError, match="not JSON serializable"):
        serialize_scenario(refused)
    for scen in float_subclasses:
        again = reload(scen)
        assert again == scen
        assert type(again.h) is float and type(again.params.patch.vertices[0][0]) is float


MALFORMED = {  # document, the line its error is reported on
    "unclosed flow mapping": ("slider: {m: 0.5\nfriction: {}\n", 2),
    "unclosed flow sequence": ("patch:\n  vertices: [[0, 0], [1, 0]\nrun: {}\n", 3),
    "nested mapping value": ("slider:\n  m: 0.5\na: b: c\n", 3),
    "tab indent": ("slider:\n\tm: 0.5\n", 2),
    "undefined alias": ("slider:\n  m: *mass\n", 2),
    "python tag": ("slider: !!python/object:os.system {}\n", 1),
}


def _parse_error_prefix(text: str) -> str:
    with pytest.raises(ScenarioParseError) as info:
        loads_scenario(text)
    return re.match(r"<string>:\d+:", str(info.value))[0]


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_yaml_reports_the_same_line_under_both_paths(name):
    text, line = MALFORMED[name]
    assert _under("pure", _parse_error_prefix, text) == f"<string>:{line}:"
    assert _under("libyaml", _parse_error_prefix, text) == f"<string>:{line}:"


# ------------------------------------------- loading, with and without PyYAML

# text other than a JSON object, which loads_scenario hands to yaml.load:
# the YAML 1.1 core scalars in every spelling the resolver knows, and plain
# collections
WALKED = {
    "empty stream": "",
    "comment only": "# nothing here\n",
    "document end": "a: 1\n...\n",
    "scalar document": "--- 1.5\n...\n",
    "plain text": "plain text\n",
    "list document": "- 1\n- two\n- [3, {four: 4}]\n",
    "ints": "[0x1F, 0o17, 017, 0b101, 1_000, 190:20:30, +1, -0, 0, 7, -12, 0x_1F, -0x1f]",
    "floats": "[1e3, 1.0e+3, .5, -.inf, .NaN, 1_0.5, 190:20:30.15, +.inf, -0.0, 1., 6.02E+23, -1_0.5, 1__0.5, 1_.5]",
    "bools": "[yes, No, ON, off, True, FALSE, y, n]",
    "nulls": "{a: ~, b: Null, c: , d: null}",
    "empty values": "a:\nb:\n",
    "quoted numbers": "['1.5', \"2\", '~', \"yes\", '']",
    "block scalars": "a: |\n  line1\n  line2\nb: >\n  folded\n  text\n",
    "duplicate keys": "a: 1\na: 2\n",
    "equal keys of three types": "{1: a, 1.0: b, true: c}",
    "nan keys": "{.nan: 1, .nan: 2}",
    "core tags": "a: !!str 1.5\nb: !!float 1\nc: !!int '7'\nd: !!bool yes\ne: !!null ''\n",
    "collection tags": "a: !!map {a: 1}\nb: !!seq [1]\nc: ! 12\nd: ! a\n",
    "float tag beyond the doubles": "a: !!float 1e999\n",
    "parse error after the document": "a: 1\n...\nb: [\n",
    "words that read as bool and null": "on: yes\nNull: {y: n, x: 1.5}\n",
    "flow lines wrapped at another indent": "a: {b: 1.5,\n   c: 2.5}\nd: [1.5,\n2.5]\n",
    "JSON that is not an object": "[1e3, NaN, 1.5]\n",
}
# and values or errors that only PyYAML's full loader builds
HANDED_OFF = {
    "anchor and alias": "a: &x 1\nb: *x\n",
    "aliased mapping": "a: &m {k: 1}\nb: *m\n",
    "merge key": "base: &b {x: 1}\nd:\n  <<: *b\n  y: 2\n",
    "merge key without anchor": "d:\n  <<: {x: 1}\n  y: 2\n",
    "value key": "=: 1\n",
    "timestamps": "t: 2001-12-14\nu: 2001-12-14t21:59:43.10-05:00\n",
    "binary tag": "b: !!binary aGVsbG8=\n",
    "set tag": "s: !!set {a, b}\n",
    "omap tag": "a: !!omap [{x: 1}]\n",
    "sequence key": "? [1, 2]\n: v\n",
    "mapping key": "? {a: 1}\n: v\n",
    "python tag": "slider: !!python/object:os.system {}\n",
    "second document": "a: 1\n---\nb: 2\n",
    "undefined alias": "slider:\n  m: *mass\n",
    "int tag on a word": "a: !!int abc\n",
    "bool tag on a word": "a: !!bool maybe\n",
    "float tag on an empty string": "a: !!float ''\n",
    "float tag on a list": "a: !!float [1]\n",
    "seq tag on a mapping": "a: !!seq {x: 1}\n",
    "local tag": "a: !custom 1\n",
}


def _same(a, b) -> bool:
    """Equal in value and type at every level, nan equal to nan and -0.0
    apart from 0.0; mappings in the same key order."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return len(a) == len(b) and all(
            _same(ka, kb) and _same(va, vb) for (ka, va), (kb, vb) in zip(a.items(), b.items()))
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float):
        return (a != a and b != b) or (a == b and math.copysign(1.0, a) == math.copysign(1.0, b))
    return a == b


def _outcome(fn, *args):
    # fn's value, or the class and message of what it raised
    try:
        return "value", fn(*args)
    except Exception as e:  # ValueError and KeyError too, which yaml.load lets through
        return "error", type(e), str(e)


def _same_outcome(a, b) -> bool:
    return a[0] == b[0] and (_same(a[1], b[1]) if a[0] == "value" else a == b)


def _serialized_corpus() -> list[Scenario]:
    from test_fuzz import fuzz_scenarios

    return _parity_scenarios() + _awkward_scenarios() + [scen for _, _, scen in fuzz_scenarios()]


def _scenario_texts() -> list[str]:
    # every scenario document the tests know
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return ([serialize_scenario(scen) for scen in _serialized_corpus()]
            + [bundled_scenario_text(name) for name in bundled_scenario_names()]
            + re.findall(r"^```yaml\n(.*?)^```", readme, flags=re.S | re.M))


def _refuse(*args, **kwds):
    raise AssertionError("PyYAML was called")


@pytest.mark.parametrize("path", sorted(YAML_PATHS))
def test_load_builds_what_yaml_load_builds(path):
    loader = YAML_PATHS[path]
    texts = list(WALKED.values()) + list(HANDED_OFF.values()) + _scenario_texts()
    for text in texts:
        got = _under(path, _outcome, scenario_module._load, text)
        assert _same_outcome(got, _outcome(yaml.load, text, loader)), text
    # and serialize_scenario's text, which the loop above holds to
    # yaml.load, is written and read without PyYAML
    corpus = _serialized_corpus()
    with pytest.MonkeyPatch.context() as mp:
        for name in ("parse", "load", "emit"):
            mp.setattr(yaml, name, _refuse)
        for scen in corpus:
            assert _under(path, reload, scen) == scen


def test_json_nested_past_the_recursion_limit_goes_to_yaml_load():
    # json.loads raises RecursionError, which the C parser of libyaml does not
    text = '{"slider": ' + "[" * 5000 + "]" * 5000 + "}"
    with pytest.raises(RecursionError):
        json.loads(text)
    with pytest.raises(ValidationError, match="^missing required section 'friction'$"):
        _under("libyaml", loads_scenario, text)


# characters that JSON or YAML read as structure, quoting, escapes,
# comments, tags, anchors and directives, or as part of a number
EDIT_CHARACTERS = " :,-+[]{}#'\"\\\n\t&*!|>%@?.e0"


def _edited_texts(count: int) -> list[str]:
    # seeded single-character edits (an insertion, a deletion or a
    # replacement) of texts serialize_scenario writes
    texts = [serialize_scenario(scen) for scen in _parity_scenarios() + _awkward_scenarios()]
    rng = random.Random(2025)
    edited = []
    for _ in range(count):
        text = rng.choice(texts)
        i = rng.randrange(len(text) + 1)
        c = rng.choice(EDIT_CHARACTERS)
        edited.append(rng.choice((text[:i] + c + text[i:], text[:i] + text[i + 1:], text[:i] + c + text[i + 1:])))
    return edited


@pytest.mark.parametrize("path", sorted(YAML_PATHS))
def test_load_of_edited_scenario_text_gives_what_yaml_load_gives(path):
    # _load gives json.loads's value for an edit that it reads as an object
    # (value and type at every level, key order and the sign of -0.0), and
    # yaml.load's outcome on the path's loader (its value, or the exception
    # class and message) for every other edit
    loader = YAML_PATHS[path]
    read = 0
    for text in _edited_texts(5000):
        got = _under(path, _outcome, scenario_module._load, text)
        try:
            doc = json.loads(text)
        except ValueError:
            doc = None
        if type(doc) is dict:
            read += 1
            assert _same_outcome(got, ("value", doc)), text
        else:
            assert _same_outcome(got, _outcome(yaml.load, text, loader)), text
    # the edits that keep the text JSON: a changed digit, a sign, a space...
    assert read > 500


@pytest.mark.parametrize("path", sorted(YAML_PATHS))
def test_loads_scenario_raises_what_yaml_load_raises(path):
    # loads_scenario as it was when it loaded through yaml.load: same
    # exception class and message on every document that fails
    texts = [text for text, _ in MALFORMED.values()] + list(WALKED.values()) + list(HANDED_OFF.values())
    loader = YAML_PATHS[path]

    def through_yaml_load():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scenario_module, "_load", lambda text: yaml.load(text, Loader=loader))
            return [_outcome(loads_scenario, text) for text in texts]

    expected = _under(path, through_yaml_load)
    got = [_under(path, _outcome, loads_scenario, text) for text in texts]
    assert all(g[0] == "error" for g in got)
    assert got == expected


@pytest.mark.parametrize("text, message", [
    (MINIMAL.replace("q_z: 0.08}", "q_z: 0.08, 1: 2, foo: 3}"), "unknown key(s) ['foo', 1] in slider"),
    (MINIMAL + "null: 1\nextra: 2\n", "unknown key(s) ['extra', None] in scenario document"),
], ids=["section", "document"])
def test_unknown_keys_of_mixed_types_rejected(text, message):
    # a str key beside an int or null one: sorting them for the message
    # must not raise TypeError
    with pytest.raises(ValidationError) as info:
        loads_scenario(text)
    assert str(info.value) == message


# -------------------------------------------------------------- README drift

def test_readme_yaml_blocks_load():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```yaml\n(.*?)^```", readme, flags=re.S | re.M)
    assert blocks
    for block in blocks:
        loads_scenario(block, source="README.md")
