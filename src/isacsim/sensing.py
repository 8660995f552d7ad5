"""Mono-static sensing channel at the ISAC base station.

Each alive first-bounce scatterer returns one echo. Per-echo gain,
round-trip delay and Doppler follow the point-scatterer radar laws.
"""

from __future__ import annotations

# the echo laws live beside the scene's echo query; they are exported here too
from .scene import (  # noqa: F401
    SceneTruth, SensingDetection, SensingError, doppler_shift, echo_delay, echoes, sensing_gain,
)


def monostatic_cir(scene: SceneTruth, t: float) -> list[SensingDetection]:
    """Sensing impulse response at time ``t``, echoes sorted by delay.

    The echoes of ``scene.echoes``, ordered by (round-trip delay,
    scatterer id).
    """
    return sorted(echoes(scene, t), key=lambda e: (e.round_trip_delay, e.scatterer_id))
