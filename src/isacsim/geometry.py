"""3D vector/angle primitives shared by every other module.

Conventions: azimuth in the xy-plane from +x toward +y, wrapped to
(-pi, pi]; elevation from the horizontal plane toward +z, in
[-pi/2, pi/2] (a direction vector's z component is sin(elevation)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

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


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """Each element of a finite array wrapped into (-pi, pi]: math.remainder(theta, 2 pi), bit for bit, and pi for -pi.

    fmod is exact, and so is shifting its result in (-2 pi, 2 pi) by
    2 pi (the two lie within a factor of two), which gives the value of
    IEEE remainder.
    """
    r = np.fmod(theta, TWO_PI)
    r = np.where(r > math.pi, r - TWO_PI, r)
    return np.where(r <= -math.pi, r + TWO_PI, r)


def normalize_angle_columns(angles: np.ndarray) -> np.ndarray:
    """The finite (n, 2k) azimuth and elevation column pairs normalized in place: azimuths
    wrapped into (-pi, pi] by ``wrap_angles``, elevations clamped into [-pi/2, pi/2]."""
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

    def __mul__(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


ORIGIN = Vec3(0.0, 0.0, 0.0)


def dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product over the last axis, summed in Vec3.dot's order, so each equals its Vec3's bit for bit."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def norms(v: np.ndarray) -> np.ndarray:
    """Length over the last axis, so each equals its Vec3's norm bit for bit."""
    return np.sqrt(dots(v, v))


def direction_columns(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 2) azimuth and elevation of each row of the (n, 3) ``d``
    and its (n,) degenerate flag: atan2(y, x) wrapped, and asin(z / |d|)
    with the ratio clamped into [-1, 1]. A vertical row (x = y = 0) has
    no defined azimuth and gets 0, elevation +-pi/2 and the flag.

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


def unit_vectors(angles: np.ndarray) -> np.ndarray:
    """The (n, 3) unit directions (cos el cos az, cos el sin az, sin el) of the (n, 2) azimuth and
    elevation rows ``angles``, the inverse of ``direction_columns``. cos and sin are math's, element
    by element: numpy's SIMD versions round some results differently."""
    flat = angles.ravel().tolist()
    cos, sin = (np.array(list(map(f, flat)), dtype=float).reshape(-1, 2) for f in (math.cos, math.sin))
    return np.column_stack([cos[:, 1] * cos[:, 0], cos[:, 1] * sin[:, 0], sin[:, 1]])


def path_term_columns(bs: np.ndarray, user: np.ndarray, fb: np.ndarray, lb: np.ndarray) -> tuple[np.ndarray, ...]:
    """The outer-leg lengths |fb - bs| + |lb - user| of n paths via first bounces ``fb`` and last
    bounces ``lb`` (a path's virtual delay carries the leg between them), their AoDs from the BS
    at ``fb`` and their AoAs from the user at ``lb``: the (n,) lengths, the (n, 4) AoD azimuth and
    elevation and AoA azimuth and elevation, and the (n, 2) AoD and AoA degenerate flags. ``fb``
    and ``lb`` are (n, 3); ``bs`` and ``user`` are (3,) or (n, 3).

    Raises:
        GeometryError: if an outer leg has zero length.
    """
    to_fb, to_lb = fb - bs, lb - user
    (aod, aod_degenerate), (aoa, aoa_degenerate) = direction_columns(to_fb), direction_columns(to_lb)
    return norms(to_fb) + norms(to_lb), np.hstack([aod, aoa]), np.column_stack([aod_degenerate, aoa_degenerate])
