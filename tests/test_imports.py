"""The package surface and what each entry point imports.

Importing the package loads only the modules a step needs; the closed
forms, the oracle, identification and the trajectory files, and numpy
with them, load on first use of one of their names."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import patchslide

SRC = Path(patchslide.__file__).resolve().parents[1]

# the package's public names before its lazy surface, by defining module
EXPORTED = {
    "closed_form": [
        "QuasiStaticInput", "TranslationStep", "pure_translation_step", "quasi_static_velocity",
    ],
    "core": [
        "AnnulusPatch", "AppliedImpulse", "AppliedWrench", "BodyPusherSchedule", "ConstantSchedule",
        "ContactImpulse", "ContactPatch", "DiskPatch", "Ecp", "FrictionParams", "PolygonPatch",
        "SliderParams", "SliderState", "SlipVelocity", "StepInputs", "TableSchedule", "WrenchSchedule",
        "normal_impulse", "to_impulse", "wrench_at",
    ],
    "errors": [
        "AllDegenerateError", "AnisotropicFrictionError", "ContactLossError", "DegenerateStepError",
        "NoConvergenceError", "OracleFailure", "PatchSlideError", "ScenarioParseError",
        "ToppleRiskError", "ValidationError", "ZeroSlipError",
    ],
    "oracle": ["KktReport", "oracle_solve_step", "verify_kkt"],
    "scenario": [
        "RunOptions", "Scenario", "bundled_scenario_names", "bundled_scenario_text", "load_scenario",
        "loads_scenario", "resolve_scenario", "serialize_scenario",
    ],
    "solver": ["SolveInfo", "jacobian", "max_dissipation_impulse", "residual", "solve_step", "solve_step_info"],
    "stepper": [
        "StepDiagnostics", "TrajectoryRecord", "assemble_inputs", "ecp", "simulate", "slip_velocity",
        "step", "validate_patch", "warm_sigma",
    ],
    "sysid": [
        "FrictionEstimate", "ObservedStep", "Reconstruction", "batch_estimate", "one_step_estimate",
        "reconstruct",
    ],
    "trajectory": ["COLUMNS", "observed_steps", "read_trajectory", "write_plot_data", "write_trajectory"],
}
ALL_NAMES = sorted(name for names in EXPORTED.values() for name in names)


def loaded_after(code: str) -> dict:
    """Run code in a fresh interpreter; return the patchslide modules it
    loaded (without the package prefix) and whether numpy was loaded."""
    probe = (
        code
        + "\nimport json, sys\n"
        + "print(json.dumps({'modules': sorted(n.split('.', 1)[1] for n in sys.modules"
        + " if n.startswith('patchslide.')), 'numpy': 'numpy' in sys.modules}))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    return json.loads(out.stdout.splitlines()[-1])


# --------------------------------------------------------------- import graph

def test_import_loads_only_the_step_modules_and_no_numpy():
    got = loaded_after("import patchslide")
    assert got["modules"] == ["core", "errors", "geometry", "scenario", "solver", "stepper"]
    assert not got["numpy"]


def test_cli_simulate_loads_no_numpy_oracle_or_closed_form(tmp_path):
    out = tmp_path / "ex1.csv"
    got = loaded_after(
        "from patchslide.cli import main\n"
        f"assert main(['simulate', '--scenario', 'example1', '--out', {str(out)!r}]) == 0"
    )
    assert "oracle" not in got["modules"]
    assert "closed_form" not in got["modules"]
    assert not got["numpy"]
    assert out.exists()


def test_cli_compare_loads_the_oracle():
    got = loaded_after("from patchslide.cli import main\nassert main(['compare', '--scenario', 'example1']) == 0")
    assert "oracle" in got["modules"]
    assert got["numpy"]


def test_first_access_stores_the_name_in_the_package():
    got = loaded_after(
        "import patchslide\n"
        "assert 'write_trajectory' not in vars(patchslide)\n"
        "f = patchslide.write_trajectory\n"
        "assert vars(patchslide)['write_trajectory'] is f\n"
        "assert patchslide.trajectory.write_trajectory is f"
    )
    assert "trajectory" in got["modules"]
    assert "oracle" not in got["modules"]



def test_import_compiles_at_most_one_function_per_value_type():
    # core.value_type compiles one function per value type, its __new__,
    # which is also its _new; the dataclass-generated methods were five
    # more compiles per type
    probe = (
        "import dataclasses, inspect, json, sys, yaml\n"
        "compiles = []\n"
        "sys.addaudithook(lambda event, args: compiles.append(1)"
        " if event == 'compile' and args[1] == '<string>' else None)\n"
        "import patchslide\n"
        "n = len(compiles)\n"
        "types = {id(c) for m in list(sys.modules.values()) if m.__name__.startswith('patchslide.')\n"
        "         for c in vars(m).values() if isinstance(c, type) and c.__module__ == m.__name__\n"
        "         and dataclasses.is_dataclass(c)}\n"
        "print(json.dumps([n, len(types)]))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    compiles, value_types = json.loads(out.stdout.splitlines()[-1])
    assert value_types == 20
    assert compiles <= value_types

# -------------------------------------------------------------------- surface

@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTED.items() for n in names])
def test_every_exported_name_is_its_submodules_object(module, name):
    assert getattr(patchslide, name) is getattr(importlib.import_module(f"patchslide.{module}"), name)


def test_dir_and_star_import_include_every_exported_name():
    assert set(ALL_NAMES) <= set(dir(patchslide))
    assert set(EXPORTED) <= set(dir(patchslide))
    assert sorted(patchslide.__all__) == ALL_NAMES
    namespace: dict = {}
    exec("from patchslide import *", namespace)
    assert set(ALL_NAMES) <= set(namespace)


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_every_submodule_is_a_package_attribute(module):
    assert getattr(patchslide, module) is importlib.import_module(f"patchslide.{module}")


def test_an_unknown_name_raises_attribute_error():
    import patchslide.cli as cli

    with pytest.raises(AttributeError, match=r"^module 'patchslide' has no attribute 'no_such_name'$"):
        patchslide.no_such_name
    with pytest.raises(ImportError):
        exec("from patchslide import no_such_name", {})
    with pytest.raises(AttributeError, match=r"^module 'patchslide.cli' has no attribute 'no_such_name'$"):
        cli.no_such_name



# each module's __all__ is the one list of its public names

EAGER = ["core", "errors", "scenario", "solver", "stepper"]


@pytest.mark.parametrize("module", sorted(patchslide._LAZY))
def test_each_lazy_list_is_its_modules_all(module):
    assert list(patchslide._LAZY[module]) == importlib.import_module(f"patchslide.{module}").__all__


def test_the_package_exports_the_union_of_its_modules_all():
    eager = [name for module in EAGER for name in importlib.import_module(f"patchslide.{module}").__all__]
    lazy = [name for names in patchslide._LAZY.values() for name in names]
    assert sorted(patchslide.__all__) == sorted(eager + lazy)
    assert len(set(patchslide.__all__)) == len(patchslide.__all__)
    assert sorted(EAGER + list(patchslide._LAZY)) == sorted(EXPORTED)
