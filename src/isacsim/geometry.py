"""3D vector/angle primitives shared by every other module.

Conventions: azimuth in the xy-plane from +x toward +y, wrapped to
(-pi, pi]; elevation from the horizontal plane toward +z, in
[-pi/2, pi/2] (a direction vector's z component is sin(elevation)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi


class GeometryError(ValueError):
    """Geometrically undefined input, e.g. a zero-length displacement."""


def check_finite(obj, error: type[ValueError]) -> None:
    """Raise ``error`` naming the first float field of dataclass ``obj`` that is NaN or infinite."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{f.name} must be finite, got {value}")


def wrap_angle(theta: float) -> float:
    """Wrap ``theta`` into (-pi, pi]; idempotent."""
    if not math.isfinite(theta):
        raise GeometryError(f"cannot wrap non-finite angle {theta!r}")
    wrapped = math.remainder(theta, TWO_PI)
    if wrapped <= -math.pi:
        wrapped += TWO_PI
    return wrapped


@dataclass(frozen=True)
class Vec3:
    """Cartesian 3-vector, meters (or m/s when used as a velocity)."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise GeometryError(f"non-finite vector component in ({self.x}, {self.y}, {self.z})")

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def distance_to(self, other: "Vec3") -> float:
        return (self - other).norm()

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


ORIGIN = Vec3(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class AngleSet:
    """Azimuth/elevation pair in radians.

    Azimuth is wrapped into (-pi, pi] and elevation clamped into
    [-pi/2, pi/2] once, at construction; downstream code never
    re-normalizes. ``degenerate`` marks directions whose azimuth is
    undefined (straight up/down) and does not take part in equality.
    """

    azimuth: float
    elevation: float
    degenerate: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "azimuth", wrap_angle(self.azimuth))
        if not math.isfinite(self.elevation):
            raise GeometryError(f"non-finite elevation {self.elevation!r}")
        object.__setattr__(self, "elevation", min(max(self.elevation, -HALF_PI), HALF_PI))


def unit_vector_from_angles(a: AngleSet) -> Vec3:
    """Unit direction vector for an azimuth/elevation pair."""
    cos_el = math.cos(a.elevation)
    return Vec3(
        cos_el * math.cos(a.azimuth),
        cos_el * math.sin(a.azimuth),
        math.sin(a.elevation),
    )


def angles_from_displacement(d: Vec3) -> AngleSet:
    """Quadrant-resolved azimuth and horizontal-reference elevation of ``d``.

    Straight up/down has no defined azimuth; such displacements come back
    as azimuth 0 with the degenerate flag set rather than raising, since
    they can occur mid-pipeline on hand-built geometries.

    Raises:
        GeometryError: if ``d`` has zero length.
    """
    r = d.norm()
    if r == 0.0:
        raise GeometryError("zero-length displacement has no direction")
    if d.x == 0.0 and d.y == 0.0:
        return AngleSet(0.0, math.copysign(HALF_PI, d.z), degenerate=True)
    # clamp guards |z|/r rounding just above 1
    elevation = math.asin(max(-1.0, min(1.0, d.z / r)))
    return AngleSet(math.atan2(d.y, d.x), elevation)


def path_terms(bs: Vec3, user: Vec3, fb: Vec3, lb: Vec3) -> tuple[float, AngleSet, AngleSet]:
    """Outer-leg length, AoD and AoA of the path via first bounce ``fb`` and last bounce ``lb``.

    The length is |fb - bs| + |lb - user|: the first-to-last-bounce leg is
    deliberately excluded, in-between propagation being carried by a
    path's virtual delay. The AoD points from the BS at the first bounce,
    the AoA from the user at the last bounce. With ``fb == lb`` this is a
    single-bounce path; with ``fb == user`` and ``lb == bs`` both legs are
    the direct path.

    Raises:
        GeometryError: if either outer leg has zero length.
    """
    to_fb, to_lb = fb - bs, lb - user
    return to_fb.norm() + to_lb.norm(), angles_from_displacement(to_fb), angles_from_displacement(to_lb)
