"""3D vector/angle primitives shared by every other module.

Conventions: azimuth in the xy-plane from +x toward +y, wrapped to
(-pi, pi]; elevation from the horizontal plane toward +z, in
[-pi/2, pi/2] (a direction vector's z component is sin(elevation)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

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


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """``wrap_angle`` of each element of a finite array, bit for bit.

    fmod is exact, and so is shifting its result in (-2 pi, 2 pi) by
    2 pi (the two lie within a factor of two), which gives the value of
    IEEE remainder; where that is -pi, wrap_angle's pi.
    """
    r = np.fmod(theta, TWO_PI)
    r = np.where(r > math.pi, r - TWO_PI, r)
    return np.where(r <= -math.pi, r + TWO_PI, r)


def normalize_angle_columns(angles: np.ndarray) -> np.ndarray:
    """The finite (n, 2k) azimuth and elevation column pairs normalized in place as ``AngleSet``
    does one pair: azimuths wrapped into (-pi, pi], elevations clamped into [-pi/2, pi/2]."""
    angles[:, 0::2] = wrap_angles(angles[:, 0::2])
    np.clip(angles[:, 1::2], -HALF_PI, HALF_PI, out=angles[:, 1::2])
    return angles


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


def dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product over the last axis, summed in Vec3.dot's order, so each equals its Vec3's bit for bit."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def norms(v: np.ndarray) -> np.ndarray:
    """Length over the last axis, so each equals its Vec3's norm bit for bit."""
    return np.sqrt(dots(v, v))


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
    leg, angles, degenerate = path_term_columns(
        np.array(bs.as_tuple()), np.array(user.as_tuple()), np.array([fb.as_tuple()]), np.array([lb.as_tuple()])
    )
    (aod_az, aod_el, aoa_az, aoa_el), (aod_degenerate, aoa_degenerate) = angles[0].tolist(), degenerate[0].tolist()
    return float(leg[0]), AngleSet(aod_az, aod_el, aod_degenerate), AngleSet(aoa_az, aoa_el, aoa_degenerate)


def direction_columns(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 2) azimuth and elevation of each row of the (n, 3) ``d``
    and its (n,) degenerate flag, bit for bit as ``angles_from_displacement``
    gives them.

    atan2 and asin are math's, element by element: numpy's SIMD versions
    round some results differently.

    Raises:
        GeometryError: if a row has zero length.
    """
    r = norms(d)
    if np.any(r == 0.0):
        raise GeometryError("zero-length displacement has no direction")
    x, y, z = d[:, 0], d[:, 1], d[:, 2]
    az = wrap_angles(np.array(list(map(math.atan2, y.tolist(), x.tolist())), dtype=float))
    el = np.array(list(map(math.asin, np.clip(z / r, -1.0, 1.0).tolist())), dtype=float)
    vertical = (x == 0.0) & (y == 0.0)
    az[vertical] = 0.0
    el[vertical] = np.copysign(HALF_PI, z[vertical])
    return np.column_stack([az, el]), vertical


def path_term_columns(bs: np.ndarray, user: np.ndarray, fb: np.ndarray, lb: np.ndarray) -> tuple[np.ndarray, ...]:
    """``path_terms`` of n paths at once: the (n,) outer-leg lengths, the
    (n, 4) AoD azimuth and elevation and AoA azimuth and elevation, and
    the (n, 2) AoD and AoA degenerate flags.

    ``fb`` and ``lb`` are (n, 3); ``bs`` and ``user`` are (3,) or (n, 3).
    """
    to_fb, to_lb = fb - bs, lb - user
    (aod, aod_degenerate), (aoa, aoa_degenerate) = direction_columns(to_fb), direction_columns(to_lb)
    return norms(to_fb) + norms(to_lb), np.hstack([aod, aoa]), np.column_stack([aod_degenerate, aoa_degenerate])
