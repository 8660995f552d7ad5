"""CSV schemas for simulator artifacts.

Every file starts with a version line ``# isacsim <schema> v<n>`` (v1
except where ``_VERSIONS`` says otherwise) followed by a header row. Floats are written with repr() so a write/read cycle
reproduces the values bit for bit; nothing time- or host-dependent is
emitted, so equal inputs give byte-identical files.
"""

from __future__ import annotations

import csv
import math
from typing import Iterable, Sequence

import numpy as np

from .comm import KIND_LOS, KIND_NLOS, TapBlock
from .geometry import AngleSet
from .scene import LOS_PATH_ID, ObservationFrame, PathObservation, SensingDetection


class CsvFormatError(ValueError):
    """Missing or wrong schema line, header, or field layout."""


def _fmt(x: float) -> str:
    return repr(float(x))


# schemas past v1; track_summary v2 added the ess_min and ess_median columns
_VERSIONS = {"track_summary": 2}


def _schema_line(name: str) -> str:
    return f"# isacsim {name} v{_VERSIONS.get(name, 1)}"


def _write(path: str, name: str, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_schema_line(name) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read(path: str, name: str, header: Sequence[str], floats: Sequence[str] = ()) -> list[dict]:
    """Rows as dicts of strings, except the ``floats`` fields, parsed and checked finite."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = fh.readline().rstrip("\n")
        if first != _schema_line(name):
            raise CsvFormatError(f"{path}: expected schema line {_schema_line(name)!r}, got {first!r}")
        reader = csv.reader(fh)
        try:
            got_header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: missing header row") from None
        if got_header != list(header):
            raise CsvFormatError(f"{path}: header mismatch: {got_header}")
        out = []
        for lineno, row in enumerate(reader, start=3):
            if not row:
                continue
            if len(row) != len(header):
                raise CsvFormatError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            rec = dict(zip(header, row))
            for key in floats:
                try:
                    value = float(rec[key])
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise CsvFormatError(f"{path}:{lineno}: {key} must be a finite number, got {rec[key]!r}")
                rec[key] = value
            out.append(rec)
    return out


# --- observation frames ------------------------------------------------------

OBS_COMM_HEADER = (
    "k", "t", "kind", "path_id", "fb_id", "lb_id", "cluster_id",
    "delay_s", "aod_az_rad", "aod_el_rad", "aod_degenerate",
    "aoa_az_rad", "aoa_el_rad", "aoa_degenerate", "power",
)

OBS_SENSING_HEADER = (
    "k", "t", "scatterer_id", "round_trip_delay_s",
    "az_rad", "el_rad", "degenerate", "doppler_hz", "gain",
)


# fields read as floats: a NaN or infinity there is rejected with its line
_OBS_COMM_FLOATS = ("t", "delay_s", "aod_az_rad", "aod_el_rad", "aoa_az_rad", "aoa_el_rad", "power")
_OBS_SENSING_FLOATS = ("t", "round_trip_delay_s", "az_rad", "el_rad", "doppler_hz", "gain")


def write_comm_observations(path: str, frames: Sequence[ObservationFrame]) -> None:
    rows = []
    for k, frame in enumerate(frames):
        paths = list(frame.comm_paths) + ([frame.los] if frame.los is not None else [])
        for obs in paths:
            rows.append(
                [
                    str(k), _fmt(frame.time), obs.kind, str(obs.path_id), str(obs.fb_id),
                    str(obs.lb_id), str(obs.cluster_id), _fmt(obs.delay),
                    _fmt(obs.aod.azimuth), _fmt(obs.aod.elevation), str(int(obs.aod.degenerate)),
                    _fmt(obs.aoa.azimuth), _fmt(obs.aoa.elevation), str(int(obs.aoa.degenerate)),
                    _fmt(obs.power),
                ]
            )
    _write(path, "comm_observations", OBS_COMM_HEADER, rows)


def write_sensing_observations(path: str, frames: Sequence[ObservationFrame]) -> None:
    rows = []
    for k, frame in enumerate(frames):
        for det in frame.sensing_detections:
            rows.append(
                [
                    str(k), _fmt(frame.time), str(det.scatterer_id), _fmt(det.round_trip_delay),
                    _fmt(det.angle.azimuth), _fmt(det.angle.elevation),
                    str(int(det.angle.degenerate)), _fmt(det.doppler), _fmt(det.gain),
                ]
            )
    _write(path, "sensing_observations", OBS_SENSING_HEADER, rows)


def read_observation_frames(comm_path: str, sensing_path: str) -> list[ObservationFrame]:
    """Rebuild per-frame observations from the two observation files."""
    comm_rows = _read(comm_path, "comm_observations", OBS_COMM_HEADER, _OBS_COMM_FLOATS)
    sens_rows = _read(sensing_path, "sensing_observations", OBS_SENSING_HEADER, _OBS_SENSING_FLOATS)

    times: dict[int, float] = {}
    comm_by_k: dict[int, list[PathObservation]] = {}
    los_by_k: dict[int, PathObservation] = {}
    for r in comm_rows:
        k = int(r["k"])
        times.setdefault(k, r["t"])
        obs = PathObservation(
            int(r["path_id"]), int(r["fb_id"]), int(r["lb_id"]), int(r["cluster_id"]),
            r["delay_s"],
            AngleSet(r["aod_az_rad"], r["aod_el_rad"], degenerate=r["aod_degenerate"] == "1"),
            AngleSet(r["aoa_az_rad"], r["aoa_el_rad"], degenerate=r["aoa_degenerate"] == "1"),
            r["power"],
            kind=r["kind"],
        )
        if obs.kind == "los":
            los_by_k[k] = obs
        else:
            comm_by_k.setdefault(k, []).append(obs)
    sens_by_k: dict[int, list[SensingDetection]] = {}
    for r in sens_rows:
        k = int(r["k"])
        times.setdefault(k, r["t"])
        sens_by_k.setdefault(k, []).append(
            SensingDetection(
                int(r["scatterer_id"]), r["round_trip_delay_s"],
                AngleSet(r["az_rad"], r["el_rad"], degenerate=r["degenerate"] == "1"),
                r["doppler_hz"], r["gain"],
            )
        )

    frames = []
    for k in sorted(times):
        frames.append(
            ObservationFrame(
                times[k],
                tuple(comm_by_k.get(k, [])),
                tuple(sens_by_k.get(k, [])),
                los_by_k.get(k),
            )
        )
    return frames


# --- channel taps -------------------------------------------------------------

SENSING_TAPS_HEADER = ("time", "scatterer_id", "delay_s", "doppler_hz", "gain")

COMM_TAPS_HEADER = ("t", "q", "p", "kind", "path_id", "delay_s", "re", "im")


def write_sensing_taps(path: str, taps_by_time: Sequence[tuple[float, Sequence[SensingDetection]]]) -> None:
    rows = []
    for t, taps in taps_by_time:
        for e in taps:
            rows.append(
                [_fmt(t), str(e.scatterer_id), _fmt(e.round_trip_delay), _fmt(e.doppler), _fmt(e.gain)]
            )
    _write(path, "sensing_taps", SENSING_TAPS_HEADER, rows)


def read_sensing_taps(path: str) -> list[dict[str, float]]:
    rows = _read(path, "sensing_taps", SENSING_TAPS_HEADER)
    return [
        {
            "time": float(r["time"]), "scatterer_id": float(int(r["scatterer_id"])),
            "delay_s": float(r["delay_s"]), "doppler_hz": float(r["doppler_hz"]),
            "gain": float(r["gain"]),
        }
        for r in rows
    ]


def write_comm_taps(path: str, taps_by_time: Iterable[tuple[float, TapBlock]]) -> None:
    """Write the taps of one frame at a time, the block's pairs in C order.

    Lines are formatted directly: no field of this schema ever needs CSV
    quoting, so the bytes equal those of ``csv.writer``.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_schema_line("comm_taps") + "\n" + ",".join(COMM_TAPS_HEADER) + "\n")
        for t, taps in taps_by_time:
            n = taps.delay.shape[-1]
            q, p = np.repeat(taps.q, n).tolist(), np.repeat(taps.p, n).tolist()
            pid, delay, re, im = (a.ravel().tolist() for a in (taps.path_id, taps.delay, taps.re, taps.im))
            kind = [KIND_LOS if i == LOS_PATH_ID else KIND_NLOS for i in pid]
            rows = zip(q, p, kind, pid, delay, re, im)
            ts = _fmt(t)
            fh.write("".join(f"{ts},{q},{p},{kind},{pid},{d!r},{re!r},{im!r}\n"
                             for q, p, kind, pid, d, re, im in rows))


def read_comm_taps(path: str) -> dict[str, np.ndarray]:
    """The file's columns: ``q``, ``p`` and ``path_id`` as ints, ``kind`` as strings, the rest floats."""
    rows = _read(path, "comm_taps", COMM_TAPS_HEADER)
    types = {"q": int, "p": int, "kind": str, "path_id": int}
    return {key: np.array([types.get(key, float)(r[key]) for r in rows]) for key in COMM_TAPS_HEADER}


# --- tracker outputs ----------------------------------------------------------

TRAJECTORY_HEADER = (
    "k", "t", "kind", "path_id", "entity_id",
    "est_x", "est_y", "est_z", "est_vx", "est_vy", "est_vz",
    "truth_x", "truth_y", "truth_z", "truth_vx", "truth_vy", "truth_vz",
    "pos_error_m", "coasted", "diverged",
)

SUMMARY_HEADER = (
    "kind", "path_id", "entity_id", "coast_steps", "diverged",
    "final_pos_error_m", "mean_pos_error_m", "ess_min", "ess_median",
)

RMSE_HEADER = ("kind", "n_clouds", "final_rmse_m", "mean_rmse_m")


def write_trajectory(path: str, rows: Sequence[Sequence[str]]) -> None:
    _write(path, "trajectory", TRAJECTORY_HEADER, rows)


def read_trajectory(path: str) -> list[dict[str, str]]:
    return _read(path, "trajectory", TRAJECTORY_HEADER)


def write_summary(path: str, rows: Sequence[Sequence[str]]) -> None:
    _write(path, "track_summary", SUMMARY_HEADER, rows)


def write_rmse(path: str, rows: Sequence[Sequence[str]]) -> None:
    _write(path, "track_rmse", RMSE_HEADER, rows)


def read_rmse(path: str) -> dict[str, dict[str, float]]:
    rows = _read(path, "track_rmse", RMSE_HEADER)
    return {
        r["kind"]: {
            "n_clouds": float(int(r["n_clouds"])),
            "final_rmse_m": float(r["final_rmse_m"]),
            "mean_rmse_m": float(r["mean_rmse_m"]),
        }
        for r in rows
    }


# --- statistics outputs ---------------------------------------------------------

SPREADS_HEADER = (
    "k", "t", "delay_spread_s",
    "aod_az_spread_rad", "aod_el_spread_rad",
    "aoa_az_spread_rad", "aoa_el_spread_rad",
)

CDF_HEADER = ("value", "fraction")

KS_HEADER = ("quantity", "ks_distance")


def write_spreads(path: str, rows: Sequence[tuple[int, float, tuple[float, float, float, float, float]]]) -> None:
    out = []
    for k, t, spreads in rows:
        out.append([str(k), _fmt(t)] + [_fmt(s) for s in spreads])
    _write(path, "spreads", SPREADS_HEADER, out)


def read_spreads(path: str) -> list[dict[str, float]]:
    rows = _read(path, "spreads", SPREADS_HEADER)
    return [{key: float(r[key]) for key in SPREADS_HEADER} for r in rows]


def write_cdf(path: str, values: Sequence[float], fractions: Sequence[float]) -> None:
    rows = [[_fmt(v), _fmt(f)] for v, f in zip(values, fractions)]
    _write(path, "cdf", CDF_HEADER, rows)


def read_cdf(path: str) -> list[tuple[float, float]]:
    rows = _read(path, "cdf", CDF_HEADER)
    return [(float(r["value"]), float(r["fraction"])) for r in rows]


def write_ks(path: str, rows: Sequence[tuple[str, float]]) -> None:
    _write(path, "ks", KS_HEADER, [[name, _fmt(v)] for name, v in rows])


def read_ks(path: str) -> dict[str, float]:
    rows = _read(path, "ks", KS_HEADER)
    return {r["quantity"]: float(r["ks_distance"]) for r in rows}
