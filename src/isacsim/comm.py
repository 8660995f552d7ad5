"""Bi-static communication channel between the BS and the user.

Taps are synthesized per antenna pair (q, p): one direct tap plus one
tap per alive scatterer path. Delays are exact per-pair geometric times
(spherical wavefront, no plane-wave shortcut); the direct and scattered
components are combined with the Rician amplitude weights sqrt(K/(K+1))
and sqrt(1/(K+1)). Elements are isotropic and vertically polarized, so
each path's polarization coupling is one co-polar phase, drawn once per
path and held (the theta-theta term of 3GPP TR 38.901 eq. 7.5-28).
One kernel pass builds the taps of many frames at once, each frame's
paths padded to the widest's; a run of frames takes a few passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .antenna import PlanarArray
from .constants import SPEED_OF_LIGHT
from .geometry import check_finite, norms
from .scene import LOS_PATH_ID, SceneTruth, TruePaths, ground_truth_paths

KIND_LOS = "los"
KIND_NLOS = "nlos"

TWO_PI = 2.0 * math.pi
_PASS_TAPS = 8192  # tap rows of a kernel pass past its first frame: frames x pairs x its widest frame's taps


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
    ids = [LOS_PATH_ID, *scene.paths[:, 0].tolist()]
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


def _taps(tx, rx_pos, q, p, carrier_hz, weights, direct_phase, scattered, counts, phases) -> list[TapBlock]:
    """Taps of F frames for rx elements ``q`` and tx elements ``p``, the one tap kernel.

    ``rx_pos`` is (F, n_rx, 3), the rx element positions in each frame;
    ``scattered`` holds the ``TruePaths`` rows of the frames in frame
    order, ``counts[f]`` of them frame f's, and ``phases`` their drawn
    co-polar phases. ``q`` and ``p``
    broadcast to the pair shape; (Q, 1) and (1, P) index columns give a
    grid whose legs are computed once per element. The direct path has
    delay |tx_p - rx_q| / c and unit power; each path, with bounce points
    fb and lb, has (|fb - tx_p| + |lb - rx_q|) / c plus its virtual delay,
    the bounce-to-bounce leg carrying no geometric delay. The amplitude is
    w * exp(j phase) * sqrt(power) * exp(j 2 pi f_c delay), where phase is
    the path's phase (``direct_phase`` for the direct path) and w is the
    direct or scattered Rician weight of ``weights``.

    Frames with fewer paths are padded to the widest frame's with copies
    of the direct tap, whose NaN bounce points sort their taps last to be
    cut off. Complex products are written out in real arithmetic: numpy's
    vectorized complex multiply uses fused multiply-adds (FMA) and rounds
    the last bit of about 4 in 10 products differently from Python's
    complex type. With element positions in the operation order that
    PlanarArray.element_positions states and norms in Vec3.norm's, every
    tap is bit-equal to a scalar evaluation of the same formulas.
    """
    if carrier_hz <= 0.0:
        raise CommError(f"carrier frequency must be positive, got {carrier_hz}")
    q, p = np.asarray(q), np.asarray(p)
    if np.any((q < 0) | (q >= rx_pos.shape[1])) or np.any((p < 0) | (p >= tx.num_elements)):
        raise IndexError("antenna element index out of range")
    nd = max(q.ndim, p.ndim)  # the pair axes, between the frame axis and the tap axis
    tx_pos = tx.element_positions()[p.reshape((1,) * (nd - p.ndim) + p.shape)][..., None, :]
    rx_pos = rx_pos[:, q.reshape((1,) * (nd - q.ndim) + q.shape)][..., None, :]
    # per tap fb (3), lb (3), virtual delay, power, path id and phase: the direct tap, the paths, then pads
    table = np.full((len(counts), 1 + counts.max(), 10), [np.nan] * 6 + [0.0, 1.0, LOS_PATH_ID, direct_phase])
    table[:, 1:][np.arange(counts.max()) < counts[:, None]] = np.column_stack(
        [scattered.fb, scattered.lb, scattered.virtual_delay, scattered.columns.table[:, 0], scattered.columns.path_id,
         phases])
    table = table.reshape(table.shape[:1] + (1,) * nd + table.shape[1:])

    fb, lb = table[..., 1:, 0:3], table[..., 1:, 3:6]
    direct, to_fb, to_lb = norms(tx_pos - rx_pos), norms(tx_pos - fb), norms(rx_pos - lb)
    if any(np.any(leg <= 0.0) for leg in (direct, to_fb, to_lb)):
        raise CommError("zero-length leg between an antenna and a path end")
    dist = np.concatenate([direct, to_fb + to_lb], axis=-1)

    path_id = table[..., 8].astype(int)
    delay = dist / SPEED_OF_LIGHT + table[..., 6]
    gain = np.exp(1j * table[..., 9])
    amplitude = np.sqrt(table[..., 7])
    phasor = np.exp(1j * (TWO_PI * carrier_hz * delay))
    re, im = _cmul(*_cmul(gain.real, gain.imag, amplitude, 0.0), phasor.real, phasor.imag)
    re, im = _cmul(np.where(path_id == LOS_PATH_ID, *weights), 0.0, re, im)

    path_id = np.broadcast_to(path_id, delay.shape)
    order = np.lexsort((path_id, delay), axis=-1)
    path_id = np.take_along_axis(path_id, order, axis=-1)
    # the other columns through each sorted tap's flat index: cheaper than a take_along_axis, which indexes every axis
    order += np.arange(0, order.size, order.shape[-1]).reshape(order.shape[:-1] + (1,))
    taps = [path_id] + [a.ravel()[order] for a in (delay, re, im)]
    q, p = np.broadcast_arrays(q, p)
    return [TapBlock(q, p, *(a[f, ..., :1 + n] for a in taps)) for f, n in enumerate(counts.tolist())]


def run_taps(scene: SceneTruth, times: Sequence[float], tx: PlanarArray, rx_template: PlanarArray, params: CommParams,
             phases: dict[int, float], q: np.ndarray, p: np.ndarray, paths: TruePaths,
             offsets: np.ndarray) -> Iterator[tuple[float, TapBlock]]:
    """(t, taps) at each of ``times``: the Rician-combined taps for rx elements ``q`` and tx elements ``p``.

    ``rx_template``, the user array, is moved to the user at each time.
    The paths of frame i are rows ``offsets[i]`` up to ``offsets[i + 1]``
    of ``paths``, the run's ``ground_truth_paths``. Each pair gets the
    direct tap plus one per path, with the path's phase from ``phases``;
    see ``_taps`` for the index shapes. A kernel pass takes consecutive
    frames while they fit in ``_PASS_TAPS``, and at least one.
    """
    for t in times:
        scene.check_time(t)
    params.validate()
    paths, offsets = paths[offsets[0]:offsets[-1]], offsets - offsets[0]  # the rows of these frames
    try:
        los_phase = phases[LOS_PATH_ID]
        path_phases = np.array([phases[pid] for pid in paths.columns.path_id.tolist()], dtype=float)
    except KeyError as exc:
        raise CommError(f"missing polarization draw for path {exc.args[0]!r}") from exc
    rx_pos = rx_template.element_positions(scene.trajectories([LOS_PATH_ID]).positions(np.array(times)[:, None]))
    counts = np.diff(offsets)
    weights, n_pairs, widths = rician_weights(params.k_factor), np.broadcast(q, p).size, (1 + counts).tolist()
    start = width = 0
    for stop in range(1, len(times) + 1):
        width = max(width, widths[stop - 1])
        if stop == len(times) or (stop + 1 - start) * n_pairs * max(width, widths[stop]) > _PASS_TAPS:
            a, b = offsets[start], offsets[stop]
            yield from zip(times[start:stop], _taps(tx, rx_pos[start:stop], q, p, scene.config.carrier_hz, weights,
                                                    los_phase, paths[a:b], counts[start:stop], path_phases[a:b]))
            start, width = stop, 0


def comm_cir(
    scene: SceneTruth,
    t: float,
    tx: PlanarArray,
    rx_template: PlanarArray,
    params: CommParams,
    phases: dict[int, float],
    pairs: Iterable[tuple[int, int]] | None = None,
) -> TapBlock:
    """``run_taps`` of the one frame at time ``t`` for a list of (q, p) pairs, as an (N,) block.

    ``pairs`` defaults to every antenna pair, q-major; the paths alive at
    ``t`` are resolved here. ``simulate`` calls ``run_taps``; this entry
    point is kept for the benchmark's ``comm.comm_cir`` span.
    """
    if pairs is None:
        pairs = [(q, p) for q in range(rx_template.num_elements) for p in range(tx.num_elements)]
    qp = np.array(list(pairs), dtype=int).reshape(-1, 2)
    return next(run_taps(scene, [t], tx, rx_template, params, phases, qp[:, 0], qp[:, 1],
                         *ground_truth_paths(scene, [t])))[1]
