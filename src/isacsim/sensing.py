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
from .constants import SPEED_OF_LIGHT
from .geometry import AngleSet, angles_from_displacement
from .scene import ROLE_FB, SceneTruth


class SensingError(ValueError):
    """Invalid sensing-channel input."""


def sensing_gain(wavelength: float, rcs: float, distance: float) -> float:
    """Two-way power gain of a point scatterer at ``distance`` meters.

    lambda^2 * rcs / (64 pi^3 d^4): the product of two free-space legs
    and the radar cross section, without antenna gains.
    """
    if wavelength <= 0.0 or rcs <= 0.0 or distance <= 0.0:
        raise SensingError("wavelength, rcs and distance must all be positive")
    return wavelength**2 * rcs / (64.0 * math.pi**3 * distance**4)


def echo_delay(distance: float) -> float:
    """Round-trip delay 2 d / c of an echo from ``distance`` meters."""
    if distance <= 0.0:
        raise SensingError(f"distance must be positive, got {distance}")
    return 2.0 * distance / SPEED_OF_LIGHT


def doppler_shift(wavelength: float, closing_speed: float) -> float:
    """Two-way Doppler 2 v / lambda; ``closing_speed`` > 0 means approaching."""
    if wavelength <= 0.0:
        raise SensingError(f"wavelength must be positive, got {wavelength}")
    return 2.0 * closing_speed / wavelength


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


def monostatic_cir(
    scene: SceneTruth,
    t: float,
    array: PlanarArray,
    carrier_hz: float | None = None,
) -> list[SensingTap]:
    """Sensing impulse response at time ``t``, taps sorted by delay.

    Per echo the complex amplitude is
    sqrt(gain) * exp(j 2 pi f_c tau) * exp(j 2 pi f_D tau), with tau the
    round-trip delay and f_D the two-way Doppler of the scatterer.
    """
    scene.check_time(t)
    f_c = scene.config.carrier_hz if carrier_hz is None else carrier_hz
    if f_c <= 0.0:
        raise SensingError(f"carrier frequency must be positive, got {f_c}")
    lam = SPEED_OF_LIGHT / f_c
    bs = scene.bs_position

    taps: list[SensingTap] = []
    for s in scene.alive_scatterers(t, role=ROLE_FB):
        pos = s.position_at(t)
        disp = pos - bs
        d = disp.norm()
        u = disp * (1.0 / d)
        closing_speed = -s.velocity.dot(u)
        tau = echo_delay(d)
        f_d = doppler_shift(lam, closing_speed)
        g = sensing_gain(lam, s.rcs, d)
        angle = angles_from_displacement(disp)
        amp = math.sqrt(g) * np.exp(1j * 2.0 * math.pi * f_c * tau) * np.exp(1j * 2.0 * math.pi * f_d * tau)
        taps.append(
            SensingTap(
                scatterer_id=s.id,
                delay=tau,
                doppler=f_d,
                gain=g,
                angle_azimuth=angle.azimuth,
                angle_elevation=angle.elevation,
                amplitude=complex(amp),
                array=array,
                wavelength=lam,
            )
        )
    taps.sort(key=lambda tap: (tap.delay, tap.scatterer_id))
    return taps
