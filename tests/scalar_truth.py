"""Scalar references the array kernels are checked against, and the entries tests take past them.

The references are per-element formulas in Python floats: a scene's
columns read back one scatterer's table row at a time (so they never call
``Trajectories.positions`` or ``Trajectories.alive``), the paths' ends by
the dense FB x LB overlap mask, angles and vector
differences on ``Vec3``, and an array element's position; ``element_offsets``
gives an array's offsets in one numpy pass of its own. ``pair_taps`` and
``initialize_at_truth`` call the package's private kernels directly.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from isacsim import comm, tracker
from isacsim.geometry import HALF_PI, TWO_PI, GeometryError, Vec3
from isacsim.scene import LOS_PATH_ID, ROLE_FB, ground_truth_paths


def velocity(scene, sid: int) -> Vec3:
    return Vec3(*scene.tracks.velocity[sid].tolist())


def position_at(scene, sid: int, t: float) -> Vec3:
    """Scatterer ``sid``'s position at ``t``: its anchor plus its velocity times the time since its birth."""
    return Vec3(*scene.tracks.anchor[sid].tolist()) + velocity(scene, sid) * (t - float(scene.tracks.birth[sid]))


def alive(scene, sid: int, t: float) -> bool:
    return float(scene.tracks.birth[sid]) <= t < float(scene.tracks.death[sid])


def alive_first_bounces(scene, t: float) -> list[int]:
    """The ids of the first-bounce scatterers alive at ``t``, in id order."""
    return [sid for sid, role in enumerate(scene.role.tolist()) if role == ROLE_FB and alive(scene, sid, t)]


def dense_path_ends(scene) -> np.ndarray:
    """The (fb_id, lb_id) ends of a scene's paths by the dense FB x LB overlap mask: each FB's single-bounce
    path, then each LB of its cluster whose lifetime overlaps the FB's, by LB id."""
    fb, lb = np.flatnonzero(scene.role == ROLE_FB), np.flatnonzero(scene.role != ROLE_FB)
    cluster, birth, death = scene.cluster_id, scene.tracks.birth, scene.tracks.death
    overlap = (cluster[fb, None] == cluster[lb]) & (birth[fb, None] < death[lb]) & (birth[lb] < death[fb, None])
    r, j = np.nonzero(overlap)
    ends = np.column_stack([np.concatenate([fb, fb[r]]), np.concatenate([fb, lb[j]])])
    return ends[np.argsort(ends[:, 0], kind="stable")]


def sub(a: Vec3, b: Vec3) -> Vec3:
    return Vec3(a.x - b.x, a.y - b.y, a.z - b.z)


def distance(a: Vec3, b: Vec3) -> float:
    return sub(a, b).norm()


def wrap_angle(theta: float) -> float:
    """Wrap ``theta`` into (-pi, pi]; idempotent."""
    if not math.isfinite(theta):
        raise GeometryError(f"cannot wrap non-finite angle {theta!r}")
    wrapped = math.remainder(theta, TWO_PI)
    if wrapped <= -math.pi:
        wrapped += TWO_PI
    return wrapped


@dataclass(frozen=True)
class AngleSet:
    """Azimuth/elevation pair in radians.

    Azimuth is wrapped into (-pi, pi] and elevation clamped into
    [-pi/2, pi/2] once, at construction. ``degenerate`` marks directions
    whose azimuth is undefined (straight up/down) and does not take part
    in equality.
    """

    azimuth: float
    elevation: float
    degenerate: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "azimuth", wrap_angle(self.azimuth))
        if not math.isfinite(self.elevation):
            raise GeometryError(f"non-finite elevation {self.elevation!r}")
        object.__setattr__(self, "elevation", min(max(self.elevation, -HALF_PI), HALF_PI))


def angles_from_displacement(d: Vec3) -> AngleSet:
    """Quadrant-resolved azimuth and horizontal-reference elevation of ``d``.

    Straight up/down has no defined azimuth and comes back as azimuth 0
    with the degenerate flag set.

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


def element_position(array, p: int) -> Vec3:
    """Absolute position of element ``p = row * cols + col`` of a ``PlanarArray``:
    origin + axis_row * (row * spacing) + axis_col * (col * spacing), in that order."""
    if not 0 <= p < array.num_elements:
        raise IndexError(f"element index {p} out of range for {array.rows}x{array.cols} array")
    row, col = divmod(p, array.cols)
    return array.origin + array.axis_row * (row * array.spacing) + array.axis_col * (col * array.spacing)


def element_offsets(array) -> np.ndarray:
    """(num_elements, 3) offsets of a ``PlanarArray``'s elements from its origin, element order p = row*cols + col."""
    rows = np.arange(array.rows)[:, None, None]
    cols = np.arange(array.cols)[None, :, None]
    row_axis = np.array(array.axis_row.as_tuple())
    col_axis = np.array(array.axis_col.as_tuple())
    offsets = rows * array.spacing * row_axis + cols * array.spacing * col_axis
    return offsets.reshape(array.num_elements, 3)


def pair_taps(tx, rx, q, p, carrier_hz, direct_phase, scattered, phases, weights):
    """``comm._taps`` of one frame, between the elements of ``tx`` and ``rx``."""
    return comm._taps(tx, rx.element_positions()[None], q, p, carrier_hz, weights, direct_phase, scattered,
                      np.array([len(scattered.columns)]), phases)[0]


def initialize_at_truth(scene, cfg, seed, t0: float = 0.0):
    """Clouds seeded exactly at the true states (positions and velocities).

    Bypasses the measurement-driven construction; every particle starts
    on the truth, so with zero process noise the filter is a fixed point
    of the stepping recursion.
    """
    cfg.validate()
    ids = ground_truth_paths(scene, [t0])[0].columns.ids
    ids = ids[np.argsort(ids[:, 0], kind="stable"), :3]
    tracks = scene.trajectories(np.concatenate([[LOS_PATH_ID], ids[:, 1], ids[:, 2]]))
    start = np.hstack([tracks.positions(t0), tracks.velocity])
    return tracker._start(cfg, np.array(scene.bs_position.as_tuple()), t0, ids, start, seed, (0.0, 0.0), ())
