"""Planar sliding dynamics with distributed patch contact.

A rigid body sliding on a horizontal plane exchanges a coupled friction
force and moment with the surface through its contact patch.  This
package integrates that motion with an implicit per-step solve, locates
the equivalent contact point, provides closed forms for the quasi-static
and pure-translation regimes, and recovers friction parameters from
observed trajectories.
"""

from .closed_form import (
    QuasiStaticInput,
    TranslationStep,
    pure_translation_step,
    quasi_static_velocity,
    translation_solve,
)
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
    ZeroMotionError,
    ZeroSlipError,
)
from .oracle import KktReport, oracle_solve_step, verify_kkt
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
from .sysid import (
    FrictionEstimate,
    ObservedStep,
    Reconstruction,
    batch_estimate,
    one_step_estimate,
    reconstruct,
)
from .trajectory import (
    COLUMNS,
    observed_steps,
    read_trajectory,
    write_plot_data,
    write_trajectory,
)

__version__ = "0.1.0"
