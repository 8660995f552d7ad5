"""Mono-static sensing channel at the ISAC base station.

Each alive first-bounce scatterer returns one echo. Its gain,
round-trip delay and Doppler follow the point-scatterer radar laws,
which ``scene`` holds beside its echo query (``scene.echoes``).
"""

from __future__ import annotations

import numpy as np

from .scene import EchoColumns


def monostatic_cir(detections: EchoColumns) -> EchoColumns:
    """Sensing impulse response of one frame's echoes, sorted by delay.

    ``detections`` are the frame's ``scene.echoes``; the response orders
    them by (round-trip delay, scatterer id).
    """
    return detections[np.lexsort((detections.scatterer_id, detections.table[:, 0]))]
