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
import sys
from bisect import bisect_right
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from operator import attrgetter
from reprlib import recursive_repr

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
    dataclass built by one compiled function, which is both the class's
    __new__ and its positional builder cls._new.

    dataclass is asked for the fields, __match_args__ and the slotted class
    only; it generates no method.  Each method it would generate by
    compiling source costs about a tenth of a millisecond, and importing
    the package makes 20 value types.  value_type compiles one function
    per class from _fill's lines: it makes an unfrozen twin of the class,
    stores each field in its slot, turns the twin into the class by
    assigning __class__ and runs __post_init__.  It has the signature
    dataclass's __init__ would give (names, defaults, annotations).  The
    class call runs it as __new__; cls._new(*fields) is the same function
    bound to the class, for the loops that build one object per row or
    step.  A class call with keywords first gathers them in a dict, so
    code that builds many objects passes the fields positionally.

    The other methods are plain closures: __repr__, __eq__, __hash__,
    __setattr__, __delattr__ and __reduce__.  They behave as
    dataclass(frozen=True, slots=True)'s do: repr is QualName(a=..., b=...)
    with a guard against recursion, equality compares the tuples of field
    values of two instances of the same class (NotImplemented otherwise),
    the hash is that tuple's hash, and every assignment or deletion raises
    FrozenInstanceError.  The class's __dataclass_params__ reads as
    frozen=True's: repr, eq and frozen set.  __reduce__ gives the class and
    its field values, so pickle, copy and deepcopy restore an instance
    through the class call, as dataclasses.replace does, and each passes
    the constructor's checks.  A derived field, declared field(init=False,
    repr=False, compare=False) and set by __post_init__ through
    object.__setattr__, is left out of the constructor, the pickled state,
    equality, hashing and repr: wherever an instance is built or restored,
    it is computed anew.  A default is a value, not a factory: the types
    are frozen, so one default instance can be shared.  The class call
    builds exactly cls, so value types are not subclassed.
    """
    cls = dataclass(slots=True, init=False, repr=False, eq=False)(cls)
    params = cls.__dataclass_params__
    params.repr = params.eq = params.frozen = True
    every = fields(cls)
    flds = [f for f in every if f.init]
    if (len(every) != len(cls.__dataclass_fields__) or any(f.kw_only or f.hash is not None for f in every)
            or any((f.repr, f.compare) != (f.init, f.init) for f in every)):
        raise TypeError(f"{cls.__name__}: value types take every field as a plain argument, or derive it")
    if any(f.default_factory is not MISSING for f in every):
        raise TypeError(f"{cls.__name__}: value types take a shared default value, not a default factory")
    defaults = []
    for f in flds:
        if f.default is not MISSING:
            defaults.append(f.default)
        elif defaults:
            raise TypeError(f"{cls.__name__}: field {f.name!r} without a default follows one with a default")
    names = [f.name for f in flds]
    namespace: dict = {}
    body = _fill(cls, "self", names, namespace)
    exec(f"def __new__(_cls, {', '.join(names)}):\n"
         + "".join(f"    {line}\n" for line in body) + "    return self\n", namespace)
    new = namespace["__new__"]
    new.__defaults__ = tuple(defaults) or None
    # -> None, as dataclass's __init__ shows, keeps the class's signature
    new.__annotations__ = {f.name: f.type for f in flds} | {"return": None}

    # the constructor's fields as a tuple, a 1-tuple for one field, as
    # dataclass's methods compare and hash them
    values = attrgetter(*names) if len(names) > 1 else lambda self: tuple(getattr(self, n) for n in names)
    labels = [f"{name}=" for name in names]

    @recursive_repr()
    def __repr__(self):
        shown = ", ".join([label + repr(value) for label, value in zip(labels, values(self))])
        return f"{self.__class__.__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return cls, values(self)

    for method in (new, __repr__, __eq__, __hash__, __setattr__, __delattr__, __reduce__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        method.__module__ = cls.__module__
        setattr(cls, method.__name__, method)
    cls._new = classmethod(new)
    return cls


def _fill(cls, var: str, args: list[str], namespace: dict) -> list[str]:
    # the source lines that make var a cls holding the values named by args,
    # one per constructor field: var is made as an unfrozen twin class with
    # the same __slots__, its slots are filled by plain attribute stores
    # (which CPython specialises to direct slot writes), then it becomes a
    # cls by assigning its __class__ and runs __post_init__.  The twin, cls
    # and object.__new__ go into namespace
    twin = type(f"_{cls.__name__}Builder", (), {"__slots__": cls.__slots__, "__module__": cls.__module__})
    namespace["_make_object"] = object.__new__
    namespace[f"_twin_{var}"] = twin
    namespace[f"_cls_{var}"] = cls
    flds = [f for f in fields(cls) if f.init]
    lines = [f"{var} = _make_object(_twin_{var})",
             *(f"{var}.{f.name} = {arg}" for f, arg in zip(flds, args, strict=True)),
             f"{var}.__class__ = _cls_{var}"]
    if hasattr(cls, "__post_init__"):
        lines.append(f"{var}.__post_init__()")
    return lines


def _flat_builder(cls, shared: tuple[str, ...]):
    # a builder of cls and of the value types its fields hold, in one call:
    # it takes, in cls's field order, the constructor fields of each field's
    # value type (the class its annotation names in cls's module) in place
    # of that field, and the fields named in shared as they are, with no
    # defaults, and it builds each part and cls by _fill's twin classes
    namespace: dict = {}
    scope = vars(sys.modules[cls.__module__])
    own = [f for f in fields(cls) if f.init]
    args: list[str] = []
    lines: list[str] = []
    for f in own:
        if f.name in shared:
            args.append(f.name)
        else:
            part = scope[f.type] if isinstance(f.type, str) else f.type
            leaves = [g.name for g in fields(part) if g.init]
            args += leaves
            lines += _fill(part, f.name, leaves, namespace)
    lines += _fill(cls, "self", [f.name for f in own], namespace)
    exec(f"def _new_flat({', '.join(args)}):\n"
         + "".join(f"    {line}\n" for line in lines) + "    return self\n", namespace)
    new = namespace["_new_flat"]
    new.__qualname__ = f"{cls.__qualname__}._new_flat"
    new.__module__ = cls.__module__
    return new


# PolygonPatch's zero-area test: 8 units of roundoff (2**-53 each) per term
# of the shoelace sum, relative to the sum of its products' magnitudes, and
# 4 units per vertex coordinate, relative to that coordinate
_AREA_ROUNDOFF = 2.0 ** -50
_VERTEX_ROUNDOFF = 2.0 ** -51
# how far from 1 the length of BodyPusherSchedule's direction may be
UNIT_TOL = 1e-9


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
        # products that overflow leave the sums at inf or nan, which no
        # patch's area can exceed: that is a patch beyond the test's range,
        # not a flat one
        _require(
            _finite(scale, moved),
            "polygon patch coordinates are too large for the area test in doubles: "
            "their products overflow",
        )
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
        _require(abs(norm - 1.0) <= UNIT_TOL, "pusher direction must be a unit vector")


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
    phase = 2.0 * math.pi * t / schedule.period
    try:
        wave = math.cos(phase)
    except ValueError:  # cos(inf): t / period overflowed
        raise ValidationError(
            f"pusher phase 2*pi*t/period = {phase!r} overflows a double at t = {t!r} s "
            f"(period {schedule.period!r} s)"
        ) from None
    mag = schedule.force_mean + schedule.force_amp * wave
    fx = mag * (c * dx - s * dy)
    fy = mag * (s * dx + c * dy)
    px, py, pz = schedule.point_body
    rx = c * px - s * py
    ry = s * px + c * py
    rz = pz
    # tau = r x f with f_z = 0
    return (fx, fy, 0.0, -rz * fy, rz * fx, rx * fy - ry * fx)


def to_impulse(wrench: AppliedWrench, h: float) -> AppliedImpulse:
    """Integrate a wrench held constant over a step of length h."""
    _require(h > 0.0, "step length must be positive")
    return AppliedImpulse(
        h * wrench.lambda_x, h * wrench.lambda_y, h * wrench.lambda_z,
        h * wrench.lambda_xtau, h * wrench.lambda_ytau, h * wrench.lambda_ztau,
    )


def normal_impulse(params: SliderParams, wrench: AppliedWrench, h: float) -> float:
    """Normal impulse p_n = h * (m*g - lambda_z) transmitted through the patch.

    Raises ContactLossError when the applied vertical force cancels the
    weight, since the sliding model requires sustained contact.
    """
    _require(h > 0.0, "step length must be positive")
    fn = params.m * params.g - wrench.lambda_z
    if fn <= 0.0:
        raise ContactLossError(
            f"vertical load {fn:g} N does not press the slider onto the plane"
        )
    return h * fn


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
