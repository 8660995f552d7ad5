"""Mono-static sensing channel at the ISAC base station.

Each alive first-bounce scatterer returns one echo. Per-echo gain,
round-trip delay and Doppler follow the point-scatterer radar laws;
the impulse response stacks the echoes with phase terms at the carrier
and steering across the BS array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .antenna import PlanarArray, steering_vector
from .geometry import AngleSet

# the echo laws live beside the scene's echo query; they are exported here too
from .scene import SceneTruth, SensingError, doppler_shift, echo_delay, echoes, sensing_gain  # noqa: F401


@dataclass(frozen=True)
class SensingTap:
    """One echo of the mono-static impulse response.

    ``amplitude`` already includes the sqrt-gain and the delay/Doppler
    phase factors. ``array`` and ``wavelength`` give the BS array's
    per-element response toward the echo, computed on demand.
    """

    scatterer_id: int
    delay: float
    doppler: float
    gain: float
    angle_azimuth: float
    angle_elevation: float
    amplitude: complex
    array: PlanarArray
    wavelength: float

    def element_response(self) -> np.ndarray:
        angle = AngleSet(self.angle_azimuth, self.angle_elevation)
        return self.amplitude * steering_vector(self.array, angle, self.wavelength)


def monostatic_cir(scene: SceneTruth, t: float, array: PlanarArray) -> list[SensingTap]:
    """Sensing impulse response at time ``t``, taps sorted by delay.

    Per echo of ``scene.echoes`` the complex amplitude is
    sqrt(gain) * exp(j 2 pi f_c tau) * exp(j 2 pi f_D tau), with tau the
    round-trip delay and f_D the two-way Doppler of the scatterer.
    """
    f_c, lam = scene.config.carrier_hz, scene.config.wavelength
    taps = [
        SensingTap(
            e.scatterer_id, e.round_trip_delay, e.doppler, e.gain, e.angle.azimuth, e.angle.elevation,
            complex(math.sqrt(e.gain) * np.exp(1j * 2.0 * math.pi * f_c * e.round_trip_delay)
                    * np.exp(1j * 2.0 * math.pi * e.doppler * e.round_trip_delay)),
            array, lam,
        )
        for e in echoes(scene, t)
    ]
    taps.sort(key=lambda tap: (tap.delay, tap.scatterer_id))
    return taps
