"""Shared types and wrench bookkeeping for planar sliding.

Conventions used throughout the package:

* SI units everywhere (m, kg, s, N).
* The support plane is the world x-y plane; z points up.
* The body frame has its origin at the projection of the center of mass
  onto the support plane and rotates with the slider by theta_z.
* Applied wrenches are expressed in the world frame and act about the
  center of mass.  Impulses are wrenches integrated over one step of
  length h.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields

from .errors import ContactLossError, ValidationError
from .geometry import convex_edges, convex_hull

__all__ = [
    "PolygonPatch",
    "AnnulusPatch",
    "DiskPatch",
    "ContactPatch",
    "SliderParams",
    "FrictionParams",
    "SliderState",
    "AppliedWrench",
    "AppliedImpulse",
    "ConstantSchedule",
    "BodyPusherSchedule",
    "TableSchedule",
    "WrenchSchedule",
    "StepInputs",
    "ContactImpulse",
    "SlipVelocity",
    "Ecp",
    "wrench_at",
    "to_impulse",
    "normal_impulse",
]


def value_type(cls):
    """Class decorator for the package's value types: a frozen, slotted
    dataclass whose __init__ stores each field straight into its slot.

    A frozen dataclass's own __init__ assigns each field through
    object.__setattr__, which dominates the cost of building a small
    object.  The __init__ made here calls each slot descriptor's __set__,
    bound once per class; the frozen __setattr__ still rejects every later
    assignment.  It has the signature dataclass would give (names,
    defaults, annotations), calls __post_init__ as dataclass does, and
    leaves equality, hashing, repr and replace to the dataclass
    machinery.  Unpickling, copy and deepcopy run __post_init__
    too, so they pass the constructor's checks.  A derived field, declared
    field(init=False, repr=False, compare=False) and set by __post_init__
    through object.__setattr__, is left out of the __init__, the pickled
    state, equality, hashing and repr: wherever an instance is built or
    restored, it is computed anew.  A default is a value, not a factory:
    the types are frozen, so one default instance can be shared.

    The per-step code calls value types with positional arguments, in
    field order: a class call with keywords first gathers them in a dict.
    """
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    every = fields(cls)
    flds = [f for f in every if f.init]
    if (len(every) != len(cls.__dataclass_fields__) or any(f.kw_only for f in every)
            or any(f.repr or f.compare for f in every if not f.init)):
        raise TypeError(f"{cls.__name__}: value types take every field as a plain argument, or derive it")
    if any(f.default_factory is not MISSING for f in every):
        raise TypeError(f"{cls.__name__}: value types take a shared default value, not a default factory")
    closure: dict = {}
    stores = []
    defaults = []
    for f in flds:
        closure[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        if f.default is not MISSING:
            defaults.append(f.default)
        elif defaults:
            raise TypeError(f"{cls.__name__}: field {f.name!r} without a default follows one with a default")
        stores.append(f"_set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        stores.append("self.__post_init__()")
    src = (
        f"def make({', '.join(closure)}):\n"
        f"    def __init__(self, {', '.join(f.name for f in flds)}):\n"
        + "".join(f"        {line}\n" for line in stores)
        + "    return __init__\n"
    )
    namespace: dict = {}
    exec(src, {}, namespace)
    init = namespace["make"](**closure)
    init.__defaults__ = tuple(defaults) or None
    init.__annotations__ = {f.name: f.type for f in flds} | {"return": None}

    # dataclass's frozen __setattr__ and __delattr__ name the class it had
    # before it added slots, so assigning a name that is not a field raised
    # TypeError instead of FrozenInstanceError; these name the final class
    names = frozenset(f.name for f in every)

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    setters = [closure[f"_set_{f.name}"] for f in flds]
    post_init = getattr(cls, "__post_init__", None)

    def __getstate__(self):
        return [getattr(self, f.name) for f in flds]

    def __setstate__(self, state):
        # the field values as a list, but a pickle written before the value
        # types had slots holds their __dict__
        if isinstance(state, dict):
            state = [state[f.name] for f in flds]
        for set_field, value in zip(setters, state):
            set_field(self, value)
        if post_init is not None:
            post_init(self)

    for method in (init, __setattr__, __delattr__, __getstate__, __setstate__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        method.__module__ = cls.__module__
        setattr(cls, method.__name__, method)
    return cls


# PolygonPatch's zero-area test: 8 units of roundoff (2**-53 each) per term
# of the shoelace sum, relative to the sum of its products' magnitudes, and
# 4 units per vertex coordinate, relative to that coordinate
_AREA_ROUNDOFF = 2.0 ** -50
_VERTEX_ROUNDOFF = 2.0 ** -51


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


@value_type
class PolygonPatch:
    """Contact patch bounded by a simple polygon, vertices in body frame.
    Derived from them: hull_edges, their hull's convex_edges, and convex,
    whether the patch is its own hull."""

    vertices: tuple[tuple[float, float], ...]
    hull_edges: tuple[tuple[float, float, float, float, float], ...] = field(init=False, repr=False, compare=False)
    convex: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _require(len(self.vertices) >= 3, "polygon patch needs at least 3 vertices")
        _require(
            all(_finite(x, y) for x, y in self.vertices),
            "polygon patch vertices must be finite",
        )
        # shoelace sum over differences from the first vertex, so that its
        # roundoff scales with the patch wherever it lies.  A sum within that
        # roundoff (_AREA_ROUNDOFF per term of its products' magnitudes), or
        # within what rounding each vertex's own coordinates moves it by (that
        # times the chord between its neighbours), is zero as far as doubles
        # can tell: a vertex interpolated between two others is off their line
        # by such a rounding.  The hull must keep three points too, as
        # the containment test walks its edges
        verts = self.vertices
        n = len(verts)
        x0, y0 = verts[0]
        area2 = scale = moved = 0.0
        for i in range(n):
            xp, yp = verts[i - 1]
            x, y = verts[i]
            xn, yn = verts[(i + 1) % n]
            a = (x - x0) * (yn - y0)
            b = (xn - x0) * (y - y0)
            area2 += a - b
            scale += abs(a) + abs(b)
            moved += abs(x) * abs(yn - yp) + abs(y) * abs(xn - xp)
        hull = convex_hull(list(verts))
        _require(
            abs(area2) > (n + 1) * _AREA_ROUNDOFF * scale + _VERTEX_ROUNDOFF * moved
            and len(hull) >= 3,
            "polygon patch has zero area",
        )
        # the patch is convex when its vertices are the hull's, in cyclic
        # order either way round; collinear or repeated vertices and
        # self-intersecting outlines fail this and keep the ray cast
        convex = len(hull) == n and verts[0] in hull
        if convex:
            i = hull.index(verts[0])
            ring = hull[i:] + hull[:i]
            convex = list(verts) in (ring, ring[:1] + ring[:0:-1])
        object.__setattr__(self, "hull_edges", convex_edges(hull))
        object.__setattr__(self, "convex", convex)


@value_type
class AnnulusPatch:
    """Ring-shaped contact patch centered on the body origin."""

    r_in: float
    r_out: float

    def __post_init__(self) -> None:
        _require(_finite(self.r_in, self.r_out), "annulus radii must be finite")
        _require(0.0 <= self.r_in < self.r_out, "annulus needs 0 <= r_in < r_out")


@value_type
class DiskPatch:
    """Full disk contact patch centered on the body origin."""

    r: float

    def __post_init__(self) -> None:
        _require(_finite(self.r) and self.r > 0.0, "disk radius must be positive")


ContactPatch = PolygonPatch | AnnulusPatch | DiskPatch


@value_type
class SliderParams:
    """Inertial and geometric description of the sliding body.

    m is the mass, I_z the moment of inertia about the vertical axis
    through the center of mass, q_z the height of the center of mass
    above the support plane, and g the gravitational acceleration.
    """

    m: float
    I_z: float
    q_z: float
    g: float
    patch: ContactPatch

    def __post_init__(self) -> None:
        _require(_finite(self.m, self.I_z, self.q_z, self.g), "slider parameters must be finite")
        _require(self.m > 0.0, "mass must be positive")
        _require(self.I_z > 0.0, "moment of inertia must be positive")
        _require(self.q_z >= 0.0, "center-of-mass height must be nonnegative")
        _require(self.g > 0.0, "gravity must be positive")


@value_type
class FrictionParams:
    """Friction coefficient and ellipsoid semi-axis constants.

    The admissible friction impulses over a step satisfy
    (p_t/e_t)^2 + (p_o/e_o)^2 + (p_r/e_r)^2 <= (mu * p_n)^2.
    e_t and e_o are dimensionless; e_r carries meters.
    """

    mu: float
    e_t: float
    e_o: float
    e_r: float

    def __post_init__(self) -> None:
        _require(_finite(self.mu, self.e_t, self.e_o, self.e_r), "friction parameters must be finite")
        _require(self.mu > 0.0, "friction coefficient must be positive")
        _require(self.e_t > 0.0 and self.e_o > 0.0 and self.e_r > 0.0, "ellipsoid constants must be positive")
        _require(
            all(0.0 < e * e < math.inf and 2.0 / (e * e) < math.inf for e in (self.e_t, self.e_o, self.e_r)),
            "friction ellipsoid constants are out of range: each square e^2 and 2/e^2 must be positive doubles",
        )


@value_type
class SliderState:
    """Planar pose and velocity of the slider at time t."""

    q_x: float
    q_y: float
    theta_z: float
    v_x: float
    v_y: float
    w_z: float
    t: float


@value_type
class AppliedWrench:
    """External force and moment on the slider, world frame, about the CM."""

    lambda_x: float = 0.0
    lambda_y: float = 0.0
    lambda_z: float = 0.0
    lambda_xtau: float = 0.0
    lambda_ytau: float = 0.0
    lambda_ztau: float = 0.0

    @staticmethod
    def zero() -> "AppliedWrench":
        """The zero wrench, one shared instance: the type is frozen."""
        return _ZERO_WRENCH


_ZERO_WRENCH = AppliedWrench()


def _wrench_finite(w: AppliedWrench) -> bool:
    # checked once per schedule, not in AppliedWrench: wrench_at builds one per pusher step
    return _finite(w.lambda_x, w.lambda_y, w.lambda_z, w.lambda_xtau, w.lambda_ytau, w.lambda_ztau)


@value_type
class AppliedImpulse:
    """External wrench integrated over one step."""

    p_x: float = 0.0
    p_y: float = 0.0
    p_z: float = 0.0
    p_xtau: float = 0.0
    p_ytau: float = 0.0
    p_ztau: float = 0.0


@value_type
class ConstantSchedule:
    """The same wrench at every time."""

    wrench: AppliedWrench

    def __post_init__(self) -> None:
        _require(_wrench_finite(self.wrench), "constant wrench must be finite")


@value_type
class BodyPusherSchedule:
    """Force of magnitude force_mean + force_amp * cos(2*pi*t/period)
    applied at a body-fixed point along a body-fixed direction.

    point_body is (x, y, z) relative to the center of mass; the x-y part
    rotates with the slider while z is a fixed height offset.
    direction_body must be a unit vector in the body x-y plane; the
    applied force has no vertical component.
    """

    point_body: tuple[float, float, float]
    direction_body: tuple[float, float]
    force_mean: float
    force_amp: float
    period: float

    def __post_init__(self) -> None:
        _require(_finite(*self.point_body), "pusher point must be finite")
        _require(_finite(*self.direction_body), "pusher direction must be finite")
        _require(_finite(self.force_mean, self.force_amp), "pusher force terms must be finite")
        _require(self.period > 0.0, "pusher period must be positive")
        _require(math.isfinite(self.period), "pusher period must be finite")
        norm = math.hypot(*self.direction_body)
        _require(abs(norm - 1.0) <= 1e-9, "pusher direction must be a unit vector")


@value_type
class TableSchedule:
    """Zero-order hold over (time, wrench) samples.

    For t before the first sample the wrench is zero; otherwise the
    sample with the largest time <= t applies.
    """

    times: tuple[float, ...]
    wrenches: tuple[AppliedWrench, ...]

    def __post_init__(self) -> None:
        _require(len(self.times) == len(self.wrenches), "table needs one wrench per time")
        _require(len(self.times) >= 1, "table schedule needs at least one row")
        _require(_finite(*self.times), "table times must be finite")
        _require(
            all(self.times[i] < self.times[i + 1] for i in range(len(self.times) - 1)),
            "table times must be strictly increasing",
        )
        _require(all(map(_wrench_finite, self.wrenches)), "table wrenches must be finite")


WrenchSchedule = ConstantSchedule | BodyPusherSchedule | TableSchedule


def wrench_at(schedule: WrenchSchedule, state: SliderState, t: float) -> AppliedWrench:
    """Evaluate a wrench schedule at time t for the given slider state.

    Only the body pusher depends on the state (through theta_z).  Its
    moment is the cross product of the world-frame arm from the center
    of mass to the contact point with the world-frame force.
    """
    if isinstance(schedule, BodyPusherSchedule):
        return AppliedWrench(*pusher_wrench(schedule, state.theta_z, t))
    return held_wrenches(schedule)[hold_index(schedule, t)]


def held_wrenches(schedule: WrenchSchedule) -> tuple[AppliedWrench, ...]:
    # what hold_index indexes: the zero wrench, which a table holds before
    # its first row and whose normal load is a body pusher's, then a
    # constant schedule's wrench or a table's rows
    if isinstance(schedule, ConstantSchedule):
        return (_ZERO_WRENCH, schedule.wrench)
    if isinstance(schedule, TableSchedule):
        return (_ZERO_WRENCH,) + schedule.wrenches
    return (_ZERO_WRENCH,)


def hold_index(schedule: ConstantSchedule | TableSchedule, t: float) -> int:
    # the zero-order hold: the index in held_wrenches(schedule) of the
    # wrench a constant or table schedule applies at time t
    if isinstance(schedule, ConstantSchedule):
        return 1
    return bisect_right(schedule.times, t)


def pusher_wrench(schedule: BodyPusherSchedule, theta_z: float, t: float) -> tuple[float, ...]:
    # the body pusher's wrench at body angle theta_z and time t, as floats in
    # AppliedWrench's field order (lambda_x, lambda_y, lambda_z, lambda_xtau,
    # lambda_ytau, lambda_ztau), for callers that need no AppliedWrench
    c = math.cos(theta_z)
    s = math.sin(theta_z)
    dx, dy = schedule.direction_body
    mag = schedule.force_mean + schedule.force_amp * math.cos(2.0 * math.pi * t / schedule.period)
    fx = mag * (c * dx - s * dy)
    fy = mag * (s * dx + c * dy)
    px, py, pz = schedule.point_body
    rx = c * px - s * py
    ry = s * px + c * py
    rz = pz
    # tau = r x f with f_z = 0
    return (fx, fy, 0.0, -rz * fy, rz * fx, rx * fy - ry * fx)


def impulse_over(wrench: AppliedWrench, h: float) -> AppliedImpulse:
    # to_impulse without the check on h, for callers that have made it
    return AppliedImpulse(
        h * wrench.lambda_x, h * wrench.lambda_y, h * wrench.lambda_z,
        h * wrench.lambda_xtau, h * wrench.lambda_ytau, h * wrench.lambda_ztau,
    )


def pressing_load(params: SliderParams, lambda_z: float) -> float:
    # the net vertical force m*g - lambda_z; ContactLossError unless it
    # presses the slider onto the plane
    fn = params.m * params.g - lambda_z
    if fn <= 0.0:
        raise ContactLossError(
            f"vertical load {fn:g} N does not press the slider onto the plane"
        )
    return fn


def to_impulse(wrench: AppliedWrench, h: float) -> AppliedImpulse:
    """Integrate a wrench held constant over a step of length h."""
    _require(h > 0.0, "step length must be positive")
    return impulse_over(wrench, h)


def normal_impulse(params: SliderParams, wrench: AppliedWrench, h: float) -> float:
    """Normal impulse p_n = h * (m*g - lambda_z) transmitted through the patch.

    Raises ContactLossError when the applied vertical force cancels the
    weight, since the sliding model requires sustained contact.
    """
    _require(h > 0.0, "step length must be positive")
    return h * pressing_load(params, wrench.lambda_z)


@value_type
class StepInputs:
    """Everything one implicit step needs, with the wrench already
    integrated into impulses and the normal impulse resolved."""

    params: SliderParams
    friction: FrictionParams
    state: SliderState
    applied: AppliedImpulse
    p_n: float

    def __post_init__(self) -> None:
        # every step builds one, so the check is inline
        if not self.p_n > 0.0:
            raise ValidationError("normal impulse must be positive")


@value_type
class ContactImpulse:
    """Friction impulse over one step and the slip speed that produced it.

    For a sliding step the impulse lies on the friction ellipsoid and
    sigma > 0.  For a step flagged as rest the impulse is the stopping
    impulse (strictly inside the ellipsoid) and sigma == 0.
    """

    p_t: float
    p_o: float
    p_r: float
    sigma: float
    p_n: float


@value_type
class SlipVelocity:
    """Slip velocity at the equivalent contact point: tangential
    components v_t, v_o and the rotational rate v_r."""

    v_t: float
    v_o: float
    v_r: float


@value_type
class Ecp:
    """Equivalent contact point in world coordinates with containment flags.

    in_hull: inside the convex hull of the patch (support region).
    in_patch: inside the patch itself; differs from in_hull only for
    non-convex patches such as the annulus.
    """

    a_x: float
    a_y: float
    in_hull: bool
    in_patch: bool
