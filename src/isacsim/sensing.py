"""Mono-static sensing channel at the ISAC base station.

Each alive first-bounce scatterer returns one echo. Its gain,
round-trip delay and Doppler follow the point-scatterer radar laws,
which ``scene`` holds beside its echo query (``scene.echoes``).
"""

from __future__ import annotations

import numpy as np

from .scene import EchoColumns


def monostatic_cir(detections: EchoColumns, offsets: np.ndarray) -> EchoColumns:
    """Sensing impulse response of a run's ``scene.echoes``: each frame's rows, between its
    ``offsets``, ordered by (round-trip delay, scatterer id)."""
    frame = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    return detections[np.lexsort((detections.scatterer_id, detections.table[:, 0], frame))]
