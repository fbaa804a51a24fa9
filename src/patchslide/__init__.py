"""Planar sliding dynamics with distributed patch contact.

A rigid body sliding on a horizontal plane exchanges a coupled friction
force and moment with the surface through its contact patch.  This
package integrates that motion with an implicit per-step solve, locates
the equivalent contact point, provides closed forms for the quasi-static
and pure-translation regimes, and recovers friction parameters from
observed trajectories.

Each module's __all__ lists its public names, and the package exports
their union.  The modules a step needs load with the package.  The closed
forms, the oracle, identification and the trajectory files load on first
use of one of their names, so a run imports only what it uses, and numpy
only when it calls the oracle, residual or jacobian.
"""

from importlib import import_module as _import_module

from . import core, errors, scenario, solver, stepper
from .core import *  # noqa: F403
from .errors import *  # noqa: F403
from .scenario import *  # noqa: F403
from .solver import *  # noqa: F403
from .stepper import *  # noqa: F403

__version__ = "0.1.0"

# the __all__ of each module no step needs, kept here so that listing the
# package's names does not import the module
_LAZY = {
    "closed_form": ("QuasiStaticInput", "TranslationStep", "quasi_static_velocity", "pure_translation_step"),
    "oracle": ("KktReport", "oracle_solve_step", "verify_kkt"),
    "sysid": (
        "ObservedStep", "Reconstruction", "FrictionEstimate", "reconstruct", "one_step_estimate",
        "batch_estimate",
    ),
    "trajectory": ("COLUMNS", "write_trajectory", "read_trajectory", "observed_steps", "write_plot_data"),
}
_SOURCES = {name: module for module, names in _LAZY.items() for name in (module, *names)}


def __getattr__(name: str):
    # PEP 562: a lazy module, or a name of one, is imported on first access
    # and stored here, so that every later access is a plain lookup
    try:
        source = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = _import_module(f"{__name__}.{source}")
    value = globals()[name] = module if name == source else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _SOURCES.keys())


__all__ = [
    *core.__all__, *errors.__all__, *scenario.__all__, *solver.__all__, *stepper.__all__,
    *(name for names in _LAZY.values() for name in names),
]
