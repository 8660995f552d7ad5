"""Bi-static communication channel between the BS and the user.

Taps are synthesized per antenna pair (q, p): one direct tap plus one
tap per alive scatterer path. Delays are exact per-pair geometric times
(spherical wavefront, no plane-wave shortcut); the direct and scattered
components are combined with the Rician amplitude weights sqrt(K/(K+1))
and sqrt(1/(K+1)). Dual polarization enters through a 2x2 random-phase
coupling matrix per path and per-antenna field patterns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .antenna import PlanarArray
from .constants import SPEED_OF_LIGHT
from .geometry import AngleSet, Vec3, check_finite, path_terms
from .scene import LOS_PATH_ID, SceneTruth, ground_truth_paths

KIND_LOS = "los"
KIND_NLOS = "nlos"

TWO_PI = 2.0 * math.pi


class CommError(ValueError):
    """Invalid communication-channel input."""


@dataclass(frozen=True)
class PolarizedPattern:
    """Vertical/horizontal field responses of an antenna vs. direction."""

    f_v: Callable[[AngleSet], float]
    f_h: Callable[[AngleSet], float]

    def vector(self, a: AngleSet) -> np.ndarray:
        return np.array([self.f_v(a), self.f_h(a)], dtype=float)


ISOTROPIC_VERTICAL = PolarizedPattern(lambda a: 1.0, lambda a: 0.0)


@dataclass(frozen=True)
class PolarizationDraw:
    """Random polarization coupling of one path.

    Four phases uniform in [0, 2pi), the cross-polarization power ratio
    kappa and the co-polar imbalance mu; drawn once per path and held.
    """

    xi_vv: float
    xi_vh: float
    xi_hv: float
    xi_hh: float
    kappa: float
    mu: float

    def __post_init__(self) -> None:
        if self.kappa <= 0.0:
            raise CommError(f"cross-polarization ratio must be positive, got {self.kappa}")
        if self.mu <= 0.0:
            raise CommError(f"co-polar imbalance must be positive, got {self.mu}")


@dataclass(frozen=True)
class CommParams:
    """Link-level parameters: Rician K plus polarization defaults.

    ``xpr_db`` converts to the linear kappa handed to each path's draw.
    K is held constant over a run.
    """

    k_factor: float = 3.0
    xpr_db: float = 8.0
    copol_imbalance: float = 1.0

    def validate(self) -> None:
        check_finite(self, CommError)
        if self.k_factor < 0.0:
            raise CommError(f"Rician K must be nonnegative, got {self.k_factor}")
        if self.copol_imbalance <= 0.0:
            raise CommError(f"co-polar imbalance must be positive, got {self.copol_imbalance}")

    @property
    def xpr_linear(self) -> float:
        return 10.0 ** (self.xpr_db / 10.0)


def draw_polarization_set(
    scene: SceneTruth, params: CommParams, rng: np.random.Generator
) -> dict[int, PolarizationDraw]:
    """Polarization draws keyed by path id, plus the LoS entry.

    The LoS entry comes first, then scene paths in stored order, so the
    draw sequence is reproducible from the generator state.
    """
    params.validate()
    draws: dict[int, PolarizationDraw] = {}
    for pid in [LOS_PATH_ID] + [p.path_id for p in scene.paths]:
        phases = rng.uniform(0.0, TWO_PI, size=4)
        draws[pid] = PolarizationDraw(
            *(float(x) for x in phases), kappa=params.xpr_linear, mu=params.copol_imbalance
        )
    return draws


def polarization_matrix(draw: PolarizationDraw, kind: str) -> np.ndarray:
    """2x2 coupling between (v, h) transmit and receive field components.

    The direct tap keeps only co-polar terms, the horizontal one sign
    flipped. Scattered taps leak across polarizations with powers set by
    kappa and mu; entry magnitudes are 1, sqrt(mu/kappa), sqrt(1/kappa),
    sqrt(mu).
    """
    if kind == KIND_LOS:
        return np.array(
            [
                [np.exp(1j * draw.xi_vv), 0.0],
                [0.0, -np.exp(1j * draw.xi_hh)],
            ],
            dtype=complex,
        )
    if kind == KIND_NLOS:
        return np.array(
            [
                [np.exp(1j * draw.xi_vv), math.sqrt(draw.mu / draw.kappa) * np.exp(1j * draw.xi_vh)],
                [
                    math.sqrt(1.0 / draw.kappa) * np.exp(1j * draw.xi_hv),
                    math.sqrt(draw.mu) * np.exp(1j * draw.xi_hh),
                ],
            ],
            dtype=complex,
        )
    raise CommError(f"unknown tap kind {kind!r}")


@dataclass(frozen=True)
class CommTap:
    """One tap of the impulse response between tx element p and rx element q."""

    q: int
    p: int
    kind: str
    path_id: int
    delay: float
    amplitude: complex

    def __post_init__(self) -> None:
        if not self.delay > 0.0:
            raise CommError(f"tap delay must be positive, got {self.delay}")

    @property
    def power(self) -> float:
        return abs(self.amplitude) ** 2


def rician_weights(k_factor: float) -> tuple[float, float]:
    """Direct and scattered amplitude weights sqrt(K/(K+1)) and sqrt(1/(K+1))."""
    if k_factor < 0.0:
        raise CommError(f"Rician K must be nonnegative, got {k_factor}")
    return math.sqrt(k_factor / (k_factor + 1.0)), math.sqrt(1.0 / (k_factor + 1.0))


@dataclass(frozen=True)
class TapBlock:
    """Taps of a block of antenna pairs at one time.

    ``q`` and ``p`` have the pair shape: (Q, P) for a grid of pairs, (N,)
    for a list. ``path_id``, ``delay`` and the amplitude parts ``re`` and
    ``im`` add a last axis over the pair's taps, sorted by (delay, path_id).
    """

    q: np.ndarray
    p: np.ndarray
    path_id: np.ndarray
    delay: np.ndarray
    re: np.ndarray
    im: np.ndarray

    def taps(self, index) -> list[CommTap]:
        """The taps of the pair at ``index`` into the pair shape."""
        q, p = int(self.q[index]), int(self.p[index])
        columns = (a[index].tolist() for a in (self.path_id, self.delay, self.re, self.im))
        return [
            CommTap(q, p, KIND_LOS if pid == LOS_PATH_ID else KIND_NLOS, pid, d, complex(re, im))
            for pid, d, re, im in zip(*columns)
        ]


def _coupling(kind: str, draw: PolarizationDraw, tx: PlanarArray, rx: PlanarArray, fb: Vec3, lb: Vec3,
              patterns) -> complex:
    """Polarization coupling of the path via ``fb`` and ``lb``, patterns evaluated toward it."""
    _, aod, aoa = path_terms(tx.origin, rx.origin, fb, lb)
    tx_pattern, rx_pattern = patterns
    return complex(rx_pattern.vector(aoa) @ polarization_matrix(draw, kind) @ tx_pattern.vector(aod))


def _norm(v: np.ndarray) -> np.ndarray:
    """Length over the last axis, summed in Vec3.norm's order."""
    return np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1] + v[..., 2] * v[..., 2])


def _cmul(ar, ai, br, bi):
    """(ar + j ai) * (br + j bi), evaluated as Python's complex type does."""
    return ar * br - ai * bi, ar * bi + ai * br


def pair_taps(
    tx: PlanarArray,
    rx: PlanarArray,
    q: np.ndarray,
    p: np.ndarray,
    carrier_hz: float,
    direct_draw: PolarizationDraw | None,
    scattered: list[tuple[int, Vec3, Vec3, float, float, PolarizationDraw]],
    weights: tuple[float, float] | None = None,
    patterns: tuple[PolarizedPattern, PolarizedPattern] = (ISOTROPIC_VERTICAL, ISOTROPIC_VERTICAL),
) -> TapBlock:
    """Taps for rx elements ``q`` and tx elements ``p``, the one tap kernel.

    ``q`` and ``p`` broadcast to the pair shape; (Q, 1) and (1, P) index
    columns give a grid whose legs are computed once per element. The
    direct path (when ``direct_draw`` is given) has delay |tx_p - rx_q| / c;
    each scattered path (path_id, fb, lb, power, virtual_delay, draw) has
    (|fb - tx_p| + |lb - rx_q|) / c plus its virtual delay, the
    bounce-to-bounce leg carrying no geometric delay. The amplitude is
    w * coupling * sqrt(power) * exp(j 2 pi f_c delay), where the
    coupling, evaluated once per path, takes the patterns (tx, rx) at the
    angles seen from the array origins, and w is the direct or scattered
    Rician weight of ``weights`` (1 when None).

    Complex products are written out in real arithmetic: numpy's
    vectorized complex multiply uses fused multiply-adds (FMA) and rounds
    the last bit of about 4 in 10 products differently from Python's
    complex type. With element positions and norms in the operation order
    of PlanarArray.element_position and Vec3.norm, every tap is bit-equal
    to a scalar evaluation of the same formulas.
    """
    if carrier_hz <= 0.0:
        raise CommError(f"carrier frequency must be positive, got {carrier_hz}")
    q, p = np.asarray(q), np.asarray(p)
    if np.any((q < 0) | (q >= rx.num_elements)) or np.any((p < 0) | (p >= tx.num_elements)):
        raise IndexError("antenna element index out of range")
    tx_pos = tx.element_positions()[p][..., None, :]
    rx_pos = rx.element_positions()[q][..., None, :]

    legs = [
        _norm(tx_pos - np.array([s[1].as_tuple() for s in scattered]).reshape(-1, 3)),
        _norm(rx_pos - np.array([s[2].as_tuple() for s in scattered]).reshape(-1, 3)),
    ]
    dist = legs[0] + legs[1]
    if direct_draw is not None:
        legs.append(_norm(tx_pos - rx_pos))
        dist = np.concatenate([legs[-1], dist], axis=-1)
    if any(np.any(leg <= 0.0) for leg in legs):
        raise CommError("zero-length leg between an antenna and a path end")

    ids = [s[0] for s in scattered]
    virtual_delay = [s[4] for s in scattered]
    gains = [
        _coupling(KIND_NLOS, draw, tx, rx, fb, lb, patterns) * math.sqrt(power)
        for _, fb, lb, power, _, draw in scattered
    ]
    if direct_draw is not None:
        ids.insert(0, LOS_PATH_ID)
        virtual_delay.insert(0, 0.0)
        gains.insert(0, _coupling(KIND_LOS, direct_draw, tx, rx, rx.origin, tx.origin, patterns))
    delay = dist / SPEED_OF_LIGHT + np.array(virtual_delay)

    gain = np.array(gains, dtype=complex)
    phasor = np.exp(1j * (TWO_PI * carrier_hz * delay))
    re, im = _cmul(gain.real, gain.imag, phasor.real, phasor.imag)
    path_id = np.array(ids, dtype=int)
    if weights is not None:
        re, im = _cmul(np.where(path_id == LOS_PATH_ID, *weights), 0.0, re, im)

    path_id = np.broadcast_to(path_id, delay.shape)
    order = np.lexsort((path_id, delay), axis=-1)
    q, p = np.broadcast_arrays(q, p)
    return TapBlock(q, p, *(np.take_along_axis(a, order, axis=-1) for a in (path_id, delay, re, im)))


def los_tap(
    p: int,
    q: int,
    tx: PlanarArray,
    rx: PlanarArray,
    carrier_hz: float,
    draw: PolarizationDraw,
    tx_pattern: PolarizedPattern = ISOTROPIC_VERTICAL,
    rx_pattern: PolarizedPattern = ISOTROPIC_VERTICAL,
) -> CommTap:
    """Unweighted direct tap between tx element ``p`` and rx element ``q``."""
    return pair_taps(tx, rx, [q], [p], carrier_hz, draw, [], patterns=(tx_pattern, rx_pattern)).taps(0)[0]


def nlos_tap(
    p: int,
    q: int,
    tx: PlanarArray,
    rx: PlanarArray,
    fb: Vec3,
    lb: Vec3,
    path_id: int,
    path_power: float,
    virtual_delay: float,
    carrier_hz: float,
    draw: PolarizationDraw,
    tx_pattern: PolarizedPattern = ISOTROPIC_VERTICAL,
    rx_pattern: PolarizedPattern = ISOTROPIC_VERTICAL,
) -> CommTap:
    """Unweighted scattered tap via first bounce ``fb`` and last bounce ``lb``."""
    if path_power < 0.0 or virtual_delay < 0.0:
        raise CommError("path power and virtual delay must be nonnegative")
    path = (path_id, fb, lb, path_power, virtual_delay, draw)
    return pair_taps(tx, rx, [q], [p], carrier_hz, None, [path], patterns=(tx_pattern, rx_pattern)).taps(0)[0]


def frame_taps(
    scene: SceneTruth,
    t: float,
    tx: PlanarArray,
    rx_template: PlanarArray,
    params: CommParams,
    pol_draws: dict[int, PolarizationDraw],
    q: np.ndarray,
    p: np.ndarray,
    tx_pattern: PolarizedPattern = ISOTROPIC_VERTICAL,
    rx_pattern: PolarizedPattern = ISOTROPIC_VERTICAL,
) -> TapBlock:
    """Rician-combined taps at time ``t`` for rx elements ``q`` and tx elements ``p``.

    ``rx_template`` supplies the user array geometry and is translated to
    the user position at ``t``. Each pair gets the direct tap plus one tap
    per path alive at ``t``; see ``pair_taps`` for the index shapes.
    """
    scene.check_time(t)
    params.validate()
    rx = rx_template.moved_to(scene.user_position(t))
    truths = ground_truth_paths(scene, t)
    try:
        los_draw = pol_draws[LOS_PATH_ID]
        scattered = [(pt.path_id, pt.fb, pt.lb, pt.power, pt.virtual_delay, pol_draws[pt.path_id]) for pt in truths]
    except KeyError as exc:
        raise CommError(f"missing polarization draw for path {exc.args[0]!r}") from exc
    return pair_taps(
        tx, rx, q, p, scene.config.carrier_hz, los_draw, scattered,
        rician_weights(params.k_factor), (tx_pattern, rx_pattern),
    )


def comm_cir(
    scene: SceneTruth,
    t: float,
    tx: PlanarArray,
    rx_template: PlanarArray,
    params: CommParams,
    pol_draws: dict[int, PolarizationDraw],
    pairs: Iterable[tuple[int, int]] | None = None,
    tx_pattern: PolarizedPattern = ISOTROPIC_VERTICAL,
    rx_pattern: PolarizedPattern = ISOTROPIC_VERTICAL,
) -> dict[tuple[int, int], list[CommTap]]:
    """Impulse response at time ``t`` for the requested (q, p) pairs.

    ``pairs`` defaults to every antenna pair; pass e.g. [(0, 0)] for the
    reference pair only. Each list holds the Rician-combined direct tap
    plus one tap per alive path, sorted by delay. The taps come from the
    array kernel ``pair_taps``, which writes its complex products in real
    arithmetic because numpy's vectorized complex multiply fuses
    multiply-adds (FMA) and would change the last bit of many amplitudes.
    """
    if pairs is None:
        pairs = [(q, p) for q in range(rx_template.num_elements) for p in range(tx.num_elements)]
    pairs = [(q, p) for q, p in pairs]
    qp = np.array(pairs, dtype=int).reshape(-1, 2)
    block = frame_taps(
        scene, t, tx, rx_template, params, pol_draws, qp[:, 0], qp[:, 1], tx_pattern, rx_pattern
    )
    return {pair: block.taps(i) for i, pair in enumerate(pairs)}
