"""Mono-static sensing channel at the ISAC base station.

Each alive first-bounce scatterer returns one echo. Per-echo gain,
round-trip delay and Doppler follow the point-scatterer radar laws.
"""

from __future__ import annotations

import numpy as np

# the echo laws live beside the scene's echo query; they are exported here too
from .scene import EchoColumns, SensingError, doppler_shift, echo_delay, echoes, sensing_gain  # noqa: F401


def monostatic_cir(detections: EchoColumns) -> EchoColumns:
    """Sensing impulse response of one frame's echoes, sorted by delay.

    ``detections`` are the frame's ``scene.echoes``; the response orders
    them by (round-trip delay, scatterer id).
    """
    return detections[np.lexsort((detections.scatterer_id, detections.table[:, 0]))]
