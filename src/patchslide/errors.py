"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "PatchSlideError",
    "ValidationError",
    "ScenarioParseError",
    "ContactLossError",
    "ToppleRiskError",
    "NoConvergenceError",
    "ZeroSlipError",
    "AnisotropicFrictionError",
    "DegenerateStepError",
    "AllDegenerateError",
    "OracleFailure",
]


class PatchSlideError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(PatchSlideError):
    """A value or configuration violates a documented constraint."""


class ScenarioParseError(PatchSlideError):
    """A scenario file could not be parsed as structured text."""


class ContactLossError(PatchSlideError):
    """The applied wrench cancels or exceeds the support force, so the
    slider would leave the surface and the contact model no longer applies."""


class ToppleRiskError(PatchSlideError):
    """The equivalent contact point left the support hull and the run is
    configured to treat that as fatal."""


class NoConvergenceError(PatchSlideError):
    """The per-step root solve did not converge: solver._solve_floats ran
    out of its _MAX_ITER iterations short of the tolerance."""


class ZeroSlipError(PatchSlideError):
    """Slip speed is zero, so the sliding friction direction is undefined."""


class AnisotropicFrictionError(PatchSlideError):
    """An operation that requires e_t == e_o was given anisotropic limits."""


class DegenerateStepError(PatchSlideError):
    """An observed step has a denominator too small for identification."""


class AllDegenerateError(PatchSlideError):
    """No observed step in a batch gave an estimate: the batch was empty,
    or every step in it was degenerate."""


class OracleFailure(PatchSlideError):
    """The reference solver could not reach its residual floor."""
