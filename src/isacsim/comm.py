"""Bi-static communication channel between the BS and the user.

Taps are synthesized per antenna pair (q, p): one direct tap plus one
tap per alive scatterer path. Delays are exact per-pair geometric times
(spherical wavefront, no plane-wave shortcut); the direct and scattered
components are combined with the Rician amplitude weights sqrt(K/(K+1))
and sqrt(1/(K+1)). Elements are isotropic and vertically polarized, so
each path's polarization coupling is one co-polar phase, drawn once per
path and held (the theta-theta term of 3GPP TR 38.901 eq. 7.5-28).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .antenna import PlanarArray
from .constants import SPEED_OF_LIGHT
from .geometry import check_finite, norms
from .scene import LOS_PATH_ID, SceneTruth, TruePaths, ground_truth_paths

KIND_LOS = "los"
KIND_NLOS = "nlos"

TWO_PI = 2.0 * math.pi


class CommError(ValueError):
    """Invalid communication-channel input."""


@dataclass(frozen=True)
class CommParams:
    """Link-level parameters: the Rician K factor, held constant over a run."""

    k_factor: float = 3.0

    def validate(self) -> None:
        check_finite(self, CommError)
        if self.k_factor < 0.0:
            raise CommError(f"Rician K must be nonnegative, got {self.k_factor}")


def draw_polarization_set(
    scene: SceneTruth, params: CommParams, rng: np.random.Generator
) -> dict[int, float]:
    """Co-polar phase, uniform in [0, 2pi), keyed by path id, plus the LoS entry.

    The LoS entry comes first, then scene paths in stored order. Four
    phases are drawn per path and only the first is kept. The other three
    are the vh, hv and hh phases of a full 2x2 polarization coupling,
    which a vertically polarized element never receives; drawing them
    keeps each kept phase where that coupling's draw puts it, so a seed
    gives the same taps as a full-coupling synthesis.
    """
    params.validate()
    ids = [LOS_PATH_ID] + [p.path_id for p in scene.paths]
    phases = rng.uniform(0.0, TWO_PI, size=(len(ids), 4))[:, 0]
    return dict(zip(ids, phases.tolist()))


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


def _cmul(ar, ai, br, bi):
    """(ar + j ai) * (br + j bi), evaluated as Python's complex type does."""
    return ar * br - ai * bi, ar * bi + ai * br


def pair_taps(
    tx: PlanarArray,
    rx: PlanarArray,
    q: np.ndarray,
    p: np.ndarray,
    carrier_hz: float,
    direct_phase: float,
    scattered: TruePaths,
    phases: np.ndarray,
    weights: tuple[float, float],
) -> TapBlock:
    """Taps for rx elements ``q`` and tx elements ``p``, the one tap kernel.

    ``q`` and ``p`` broadcast to the pair shape; (Q, 1) and (1, P) index
    columns give a grid whose legs are computed once per element. The
    direct path has delay |tx_p - rx_q| / c and unit power; each path of
    ``scattered``, with bounce points fb and lb, has
    (|fb - tx_p| + |lb - rx_q|) / c plus its virtual delay, the
    bounce-to-bounce leg carrying no geometric delay. The amplitude is
    w * exp(j phase) * sqrt(power) * exp(j 2 pi f_c delay), where phase is
    the path's drawn co-polar phase (its row of ``phases``,
    ``direct_phase`` for the direct path) and w is the direct or
    scattered Rician weight of ``weights``.

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

    direct, to_fb, to_lb = norms(tx_pos - rx_pos), norms(tx_pos - scattered.fb), norms(rx_pos - scattered.lb)
    if any(np.any(leg <= 0.0) for leg in (direct, to_fb, to_lb)):
        raise CommError("zero-length leg between an antenna and a path end")
    dist = np.concatenate([direct, to_fb + to_lb], axis=-1)

    path_id = np.concatenate([[LOS_PATH_ID], scattered.columns.path_id])
    delay = dist / SPEED_OF_LIGHT + np.concatenate([[0.0], scattered.virtual_delay])
    gain = np.exp(1j * np.concatenate([[direct_phase], phases]))
    amplitude = np.sqrt(np.concatenate([[1.0], scattered.columns.table[:, 0]]))
    phasor = np.exp(1j * (TWO_PI * carrier_hz * delay))
    re, im = _cmul(*_cmul(gain.real, gain.imag, amplitude, 0.0), phasor.real, phasor.imag)
    re, im = _cmul(np.where(path_id == LOS_PATH_ID, *weights), 0.0, re, im)

    path_id = np.broadcast_to(path_id, delay.shape)
    order = np.lexsort((path_id, delay), axis=-1)
    q, p = np.broadcast_arrays(q, p)
    return TapBlock(q, p, *(np.take_along_axis(a, order, axis=-1) for a in (path_id, delay, re, im)))


def frame_taps(
    scene: SceneTruth,
    t: float,
    tx: PlanarArray,
    rx_template: PlanarArray,
    params: CommParams,
    phases: dict[int, float],
    q: np.ndarray,
    p: np.ndarray,
    paths: TruePaths,
) -> TapBlock:
    """Rician-combined taps at time ``t`` for rx elements ``q`` and tx elements ``p``.

    ``rx_template`` supplies the user array geometry and is translated to
    the user position at ``t``. ``paths`` are the frame's
    ``ground_truth_paths``, resolved by the caller. Each pair gets the
    direct tap plus one tap per path, with the path's phase from
    ``phases``; see ``pair_taps`` for the index shapes.
    """
    scene.check_time(t)
    params.validate()
    rx = rx_template.moved_to(scene.user_position(t))
    try:
        los_phase = phases[LOS_PATH_ID]
        path_phases = np.array([phases[pid] for pid in paths.columns.path_id.tolist()], dtype=float)
    except KeyError as exc:
        raise CommError(f"missing polarization draw for path {exc.args[0]!r}") from exc
    return pair_taps(
        tx, rx, q, p, scene.config.carrier_hz, los_phase, paths, path_phases, rician_weights(params.k_factor)
    )


def comm_cir(
    scene: SceneTruth,
    t: float,
    tx: PlanarArray,
    rx_template: PlanarArray,
    params: CommParams,
    phases: dict[int, float],
    pairs: Iterable[tuple[int, int]] | None = None,
) -> TapBlock:
    """``frame_taps`` for a list of (q, p) pairs, as an (N,) block.

    ``pairs`` defaults to every antenna pair, q-major; the paths alive at
    ``t`` are resolved here. The CLI calls ``frame_taps``; this entry
    point is kept for the benchmark's ``comm.comm_cir`` span.
    """
    if pairs is None:
        pairs = [(q, p) for q in range(rx_template.num_elements) for p in range(tx.num_elements)]
    qp = np.array(list(pairs), dtype=int).reshape(-1, 2)
    paths = ground_truth_paths(scene, [t])[0]
    return frame_taps(scene, t, tx, rx_template, params, phases, qp[:, 0], qp[:, 1], paths)
