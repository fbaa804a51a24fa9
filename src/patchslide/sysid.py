"""Friction parameter identification from observed trajectories.

Given consecutive states, the applied impulse, and the normal impulse,
the friction impulse and the end-of-step slip velocity are recoverable
in closed form; each sliding step then yields one algebraic estimate of
the parameter triple (e_t*mu, (e_o/e_t)^2, (e_r/e_t)^2).  mu and e_t are
not separately identifiable from planar sliding data.
"""

from __future__ import annotations

import math
from statistics import median

from .core import AppliedImpulse, SliderState, _finite, _require, value_type
from .errors import AllDegenerateError, DegenerateStepError, ValidationError

__all__ = [
    "ObservedStep",
    "Reconstruction",
    "FrictionEstimate",
    "reconstruct",
    "one_step_estimate",
    "batch_estimate",
]

# denominators below this magnitude make a step unusable
DEGENERACY_FLOOR = 1e-8


@value_type
class ObservedStep:
    """One observed transition: states at both ends of a step, the
    applied impulse during it, and the normal impulse."""

    state_u: SliderState
    state_u1: SliderState
    applied: AppliedImpulse
    p_n: float

    def __post_init__(self) -> None:
        if not self.state_u1.t - self.state_u.t > 0.0:
            raise ValidationError("observed step must advance time")
        if not self.p_n > 0.0:
            raise ValidationError("normal impulse must be positive")


@value_type
class Reconstruction:
    """Friction impulse and end-of-step slip velocity recovered from one
    observed step."""

    p_t: float
    p_o: float
    p_r: float
    v_t: float
    v_o: float
    v_r: float


def reconstruct(step: ObservedStep, m: float, I_z: float, q_z: float) -> Reconstruction:
    """Invert the velocity update for the friction impulse, then evaluate
    the slip velocity at the implied contact point offset."""
    u = step.state_u
    u1 = step.state_u1
    a = step.applied
    p_t = m * (u1.v_x - u.v_x) - a.p_x
    p_o = m * (u1.v_y - u.v_y) - a.p_y
    p_r = I_z * (u1.w_z - u.w_z) - a.p_ztau
    # contact point offset from the CM, in impulse form
    d_x = (a.p_ytau - p_t * q_z) / step.p_n
    d_y = (-a.p_xtau - p_o * q_z) / step.p_n
    v_t = u1.v_x - u1.w_z * d_y
    v_o = u1.v_y + u1.w_z * d_x
    v_r = u1.w_z
    return Reconstruction(p_t, p_o, p_r, v_t, v_o, v_r)


def one_step_estimate(
    rec: Reconstruction, p_n: float, floor: float = DEGENERACY_FLOOR
) -> tuple[float, float, float]:
    """Parameter triple (et2mu, ratio_o, ratio_r) from one reconstruction.

    et2mu is the square root of the first sliding identity
    (p_t/p_n)^2 + p_t*p_o*v_o/(p_n^2*v_t) + p_t*p_r*v_r/(p_n^2*v_t),
    which collapses to e_t*mu for any maximum-dissipation impulse; the
    ratios come out squared: ratio_o = p_o*v_t/(p_t*v_o) = (e_o/e_t)^2
    and ratio_r = p_r*v_t/(p_t*v_r) = (e_r/e_t)^2.

    Raises DegenerateStepError when any denominator magnitude (v_t, v_o,
    v_r, p_t) is below the floor or zero, the first identity is
    nonpositive or too large to be squared in double precision, or a ratio
    is not a finite double.
    """
    for name, val in (("v_t", rec.v_t), ("v_o", rec.v_o), ("v_r", rec.v_r), ("p_t", rec.p_t)):
        if abs(val) < floor or val == 0.0:
            raise DegenerateStepError(f"denominator {name} = {val:g} below floor {floor:g}")
    try:
        first = (
            (rec.p_t / p_n) ** 2
            + rec.p_t * rec.p_o * rec.v_o / (p_n ** 2 * rec.v_t)
            + rec.p_t * rec.p_r * rec.v_r / (p_n ** 2 * rec.v_t)
        )
    except (OverflowError, ZeroDivisionError):  # a square over or under the doubles
        first = math.inf
    if not first < math.inf:  # inf, or nan from inf - inf
        raise DegenerateStepError("first sliding identity overflows a double")
    if first <= 0.0:
        raise DegenerateStepError(f"first sliding identity nonpositive ({first:g})")
    et2mu = math.sqrt(first)
    try:
        ratio_o = rec.p_o * rec.v_t / (rec.p_t * rec.v_o)
        ratio_r = rec.p_r * rec.v_t / (rec.p_t * rec.v_r)
    except ZeroDivisionError:  # a denominator below the doubles
        ratio_o = ratio_r = math.inf
    if not (math.isfinite(ratio_o) and math.isfinite(ratio_r)):  # inf, or nan from inf/inf
        raise DegenerateStepError("a ratio of the sliding identities overflows a double")
    return (et2mu, ratio_o, ratio_r)


@value_type
class FrictionEstimate:
    """Aggregated friction parameters: medians over per-step estimates,
    with median-absolute-deviation dispersion and the skipped-step count."""

    et2mu: float
    ratio_o: float
    ratio_r: float
    per_step: tuple[tuple[float, float, float], ...]
    dispersion: tuple[float, float, float]
    n_skipped: int


def batch_estimate(
    traj: list[ObservedStep],
    m: float,
    I_z: float,
    q_z: float,
    floor: float = DEGENERACY_FLOOR,
) -> FrictionEstimate:
    """Estimate friction parameters over a trajectory, skipping degenerate
    steps.  Medians rather than means: one-step estimates are heavy-tailed
    near sign changes of the slip components.  m, I_z and q_z are checked
    as SliderParams checks them; floor must be finite and nonnegative."""
    _require(_finite(m, I_z, q_z), "slider parameters must be finite")
    _require(m > 0.0, "mass must be positive")
    _require(I_z > 0.0, "moment of inertia must be positive")
    _require(q_z >= 0.0, "center-of-mass height must be nonnegative")
    _require(_finite(floor) and floor >= 0.0, "degeneracy floor must be finite and nonnegative")
    per_step: list[tuple[float, float, float]] = []
    skipped = 0
    for step in traj:
        rec = reconstruct(step, m, I_z, q_z)
        try:
            per_step.append(one_step_estimate(rec, step.p_n, floor))
        except DegenerateStepError:
            skipped += 1
    if not per_step:
        raise AllDegenerateError(f"all {len(traj)} observed steps were degenerate")
    cols = list(zip(*per_step))
    meds = [median(c) for c in cols]
    mads = [median([abs(x - m_) for x in c]) for c, m_ in zip(cols, meds)]
    return FrictionEstimate(
        et2mu=meds[0],
        ratio_o=meds[1],
        ratio_r=meds[2],
        per_step=tuple(per_step),
        dispersion=(mads[0], mads[1], mads[2]),
        n_skipped=skipped,
    )
