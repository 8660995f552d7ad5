"""Scalar references for a scene's columns: one scatterer's table row read back in Python floats.

They are the per-scatterer formulas the array kernels are checked against,
so they never call ``Trajectories.positions`` or ``Trajectories.alive``.
"""

from isacsim.geometry import Vec3
from isacsim.scene import ROLE_FB


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
