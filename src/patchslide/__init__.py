"""Planar sliding dynamics with distributed patch contact.

A rigid body sliding on a horizontal plane exchanges a coupled friction
force and moment with the surface through its contact patch.  This
package integrates that motion with an implicit per-step solve, locates
the equivalent contact point, provides closed forms for the quasi-static
and pure-translation regimes, and recovers friction parameters from
observed trajectories.

The modules a step needs load with the package.  The closed forms, the
oracle, identification and the trajectory files load on first use of one
of their names, so a run imports only what it uses, and numpy only when
it calls the oracle, residual or jacobian.
"""

from importlib import import_module as _import_module

from .core import (
    AnnulusPatch,
    AppliedImpulse,
    AppliedWrench,
    BodyPusherSchedule,
    ConstantSchedule,
    ContactImpulse,
    ContactPatch,
    DiskPatch,
    Ecp,
    FrictionParams,
    PolygonPatch,
    SliderParams,
    SliderState,
    SlipVelocity,
    StepInputs,
    TableSchedule,
    WrenchSchedule,
    normal_impulse,
    to_impulse,
    wrench_at,
)
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
    ZeroSlipError,
)
from .scenario import (
    RunOptions,
    Scenario,
    bundled_scenario_names,
    bundled_scenario_text,
    load_scenario,
    loads_scenario,
    resolve_scenario,
    serialize_scenario,
)
from .solver import (
    SolveInfo,
    jacobian,
    max_dissipation_impulse,
    residual,
    solve_step,
    solve_step_info,
)
from .stepper import (
    StepDiagnostics,
    TrajectoryRecord,
    assemble_inputs,
    ecp,
    simulate,
    slip_velocity,
    step,
    validate_patch,
)

__version__ = "0.1.0"


def _lazy_getattr(namespace: dict, sources: dict[str, str]):
    """A module __getattr__ (PEP 562) that imports a name on first access.

    sources maps each lazy name to the package submodule that defines it,
    or to itself for the submodule.  The name is stored in namespace, the
    module's globals, so every later access is a plain lookup; any other
    name raises AttributeError."""

    def __getattr__(name: str):
        try:
            source = sources[name]
        except KeyError:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}") from None
        module = _import_module(f"{__name__}.{source}")
        value = namespace[name] = module if name == source else getattr(module, name)
        return value

    return __getattr__


# the names of the modules no step needs, by the module that defines them
_LAZY = {
    "closed_form": (
        "QuasiStaticInput",
        "TranslationStep",
        "pure_translation_step",
        "quasi_static_velocity",
    ),
    "oracle": ("KktReport", "oracle_solve_step", "verify_kkt"),
    "sysid": (
        "FrictionEstimate",
        "ObservedStep",
        "Reconstruction",
        "batch_estimate",
        "one_step_estimate",
        "reconstruct",
    ),
    "trajectory": (
        "COLUMNS",
        "observed_steps",
        "read_trajectory",
        "write_plot_data",
        "write_trajectory",
    ),
}
_SOURCES = {name: module for module, names in _LAZY.items() for name in (module, *names)}

__getattr__ = _lazy_getattr(globals(), _SOURCES)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _SOURCES.keys())


__all__ = [
    # core
    "AnnulusPatch", "AppliedImpulse", "AppliedWrench", "BodyPusherSchedule", "ConstantSchedule",
    "ContactImpulse", "ContactPatch", "DiskPatch", "Ecp", "FrictionParams", "PolygonPatch",
    "SliderParams", "SliderState", "SlipVelocity", "StepInputs", "TableSchedule", "WrenchSchedule",
    "normal_impulse", "to_impulse", "wrench_at",
    # errors
    "AllDegenerateError", "AnisotropicFrictionError", "ContactLossError", "DegenerateStepError",
    "NoConvergenceError", "OracleFailure", "PatchSlideError", "ScenarioParseError",
    "ToppleRiskError", "ValidationError", "ZeroSlipError",
    # scenario
    "RunOptions", "Scenario", "bundled_scenario_names", "bundled_scenario_text", "load_scenario",
    "loads_scenario", "resolve_scenario", "serialize_scenario",
    # solver
    "SolveInfo", "jacobian", "max_dissipation_impulse", "residual", "solve_step", "solve_step_info",
    # stepper
    "StepDiagnostics", "TrajectoryRecord", "assemble_inputs", "ecp", "simulate", "slip_velocity",
    "step", "validate_patch",
    # the lazy modules
    *(name for names in _LAZY.values() for name in names),
]
