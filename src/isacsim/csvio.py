"""CSV schemas for simulator artifacts.

Every file starts with a version line ``# isacsim <schema> v<n>`` (v1
except where ``_VERSIONS`` says otherwise) followed by a header row. Floats are written with repr() so a write/read cycle
reproduces the values bit for bit; nothing time- or host-dependent is
emitted, so equal inputs give byte-identical files.
"""

from __future__ import annotations

import csv
import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from .comm import KIND_LOS, KIND_NLOS, TapBlock
from .geometry import normalize_angle_columns
from .scene import (
    LOS_PATH_ID,
    EchoColumns,
    ObservationFrame,
    PathColumns,
    _fmt,
    check_round_trip_delays,
)


class CsvFormatError(ValueError):
    """Missing or wrong schema line, header, or field layout."""


# schemas past v1; track_summary v2 added the ess_min and ess_median columns
_VERSIONS = {"track_summary": 2}


def _schema_line(name: str) -> str:
    return f"# isacsim {name} v{_VERSIONS.get(name, 1)}"


def _write(path: str, name: str, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write the schema line, the header and ``rows`` as comma-joined lines: no field of
    any schema ever needs CSV quoting, so the bytes equal those of ``csv.writer``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_schema_line(name) + "\n" + ",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def _column(raw: tuple[str, ...], kind: type) -> tuple[np.ndarray | None, int | None]:
    """``raw`` parsed as finite floats or as 64-bit ints; else None and the index of its first bad entry."""
    try:
        values = np.array(list(map(kind, raw)), dtype=kind)
    except (ValueError, OverflowError):
        values = None
    if values is not None and (kind is int or np.isfinite(values).all()):
        return values, None
    return None, next(i for i, s in enumerate(raw) if not _valid(s, kind))


def _valid(s: str, kind: type) -> bool:
    try:
        value = kind(s)
    except ValueError:
        return False
    return math.isfinite(value) if kind is float else -(2**63) <= value < 2**63


_BLOCK = 1024  # rows held as strings at once while parsing


def read_columns(
    path: str,
    name: str,
    header: Sequence[str],
    floats: Sequence[str] = (),
    ints: Sequence[str] = (),
    strings: Sequence[str] = (),
) -> dict:
    """The named columns of a file: ``floats`` as finite float arrays,
    ``ints`` as int arrays and ``strings`` as tuples of strings.

    Every row must have one field per header column. Rows are parsed a
    block at a time, which bounds the strings held at once. Blank lines
    are skipped. The first bad row is reported with its file and line:
    its field count if wrong, else its first bad field in ``floats`` then
    ``ints`` order.
    """
    parsed = [(key, float) for key in floats] + [(key, int) for key in ints]
    parts = {key: [] for key in [*floats, *ints, *strings]}
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
        end = 2
        for rows in iter(lambda: list(itertools.islice(reader, _BLOCK)), []):
            lines, end = range(end + 1, end + 1 + len(rows)), end + len(rows)
            if not all(rows):
                lines = [n for n, row in zip(lines, rows) if row]
                rows = [row for row in rows if row]
            short = next((i for i, row in enumerate(rows) if len(row) != len(header)), len(rows))
            columns = dict(zip(header, zip(*rows[:short]))) if short else dict.fromkeys(header, ())
            bad = []
            for rank, (key, kind) in enumerate(parsed):
                values, i = _column(columns[key], kind)
                if i is None:
                    parts[key].append(values)
                else:
                    what = "a finite number" if kind is float else "an integer"
                    bad.append((i, rank, f"{path}:{lines[i]}: {key} must be {what}, got {columns[key][i]!r}"))
            if bad:
                raise CsvFormatError(min(bad)[2])
            if short < len(rows):
                raise CsvFormatError(f"{path}:{lines[short]}: expected {len(header)} fields, got {len(rows[short])}")
            for key in strings:
                parts[key].append(columns[key])
    out = {key: np.concatenate(parts[key] or [np.array([], dtype=kind)]) for key, kind in parsed}
    out.update((key, tuple(itertools.chain.from_iterable(parts[key]))) for key in strings)
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
_OBS_COMM_INTS = ("k", "path_id", "fb_id", "lb_id", "cluster_id")
_OBS_SENSING_INTS = ("k", "scatterer_id")


def write_comm_observations(path: str, frames: Sequence[ObservationFrame]) -> None:
    """Each frame's path rows, then its LoS row."""

    def rows():
        for k, frame in enumerate(frames):
            head = [str(k), _fmt(frame.time)]
            for kind, part in ((KIND_NLOS, frame.comm_paths), (KIND_LOS, frame.los)):
                for ids, (power, delay, aod_az, aod_el, aoa_az, aoa_el), (aod_deg, aoa_deg) in zip(
                    part.ids.tolist(), part.table.tolist(), part.degenerate.tolist()
                ):
                    yield head + [
                        kind, *map(str, ids), repr(delay), repr(aod_az), repr(aod_el), str(int(aod_deg)),
                        repr(aoa_az), repr(aoa_el), str(int(aoa_deg)), repr(power),
                    ]

    _write(path, "comm_observations", OBS_COMM_HEADER, rows())


def write_sensing_observations(path: str, frames: Sequence[ObservationFrame]) -> None:
    def rows():
        for k, frame in enumerate(frames):
            head = [str(k), _fmt(frame.time)]
            echoes = frame.sensing_detections
            for sid, (delay, az, el, doppler, gain), deg in zip(
                echoes.scatterer_id.tolist(), echoes.table.tolist(), echoes.degenerate.tolist()
            ):
                yield head + [str(sid), repr(delay), repr(az), repr(el), str(int(deg)), repr(doppler), repr(gain)]

    _write(path, "sensing_observations", OBS_SENSING_HEADER, rows())


def _flags(column: tuple[str, ...]) -> np.ndarray:
    return np.array(column, dtype=str) == "1"


def read_observation_frames(comm_path: str, sensing_path: str) -> list[ObservationFrame]:
    """Rebuild per-frame observations from the two observation files.

    Frames come in order of k, each at the time of its first row (comm
    rows before sensing rows). Within a frame rows keep their file order,
    and of several LoS rows the last one counts. A frame's columns are
    slices of arrays that hold the whole file.
    """
    c = read_columns(
        comm_path, "comm_observations", OBS_COMM_HEADER, _OBS_COMM_FLOATS, _OBS_COMM_INTS,
        ("kind", "aod_degenerate", "aoa_degenerate"),
    )
    s = read_columns(
        sensing_path, "sensing_observations", OBS_SENSING_HEADER, _OBS_SENSING_FLOATS, _OBS_SENSING_INTS,
        ("degenerate",),
    )
    check_round_trip_delays(s["round_trip_delay_s"])
    table = np.column_stack(
        [c[key] for key in ("power", "delay_s", "aod_az_rad", "aod_el_rad", "aoa_az_rad", "aoa_el_rad")]
    )
    normalize_angle_columns(table[:, 2:])
    comm = PathColumns(
        np.column_stack([c[key] for key in ("path_id", "fb_id", "lb_id", "cluster_id")]),
        table,
        np.column_stack([_flags(c["aod_degenerate"]), _flags(c["aoa_degenerate"])]),
    )
    echo = np.column_stack([s[key] for key in ("round_trip_delay_s", "az_rad", "el_rad", "doppler_hz", "gain")])
    normalize_angle_columns(echo[:, 1:3])
    echoes = EchoColumns(s["scatterer_id"], echo, _flags(s["degenerate"]))

    keys, first = np.unique(np.concatenate([c["k"], s["k"]]), return_index=True)
    times = np.concatenate([c["t"], s["t"]])[first].tolist()
    los = np.array(c["kind"], dtype=str) == KIND_LOS
    groups = []
    for part, k in ((comm[~los], c["k"][~los]), (comm[los], c["k"][los]), (echoes, s["k"])):
        order = np.argsort(k, kind="stable")
        ranked = k[order]
        groups.append((part[order], np.searchsorted(ranked, keys, "left"), np.searchsorted(ranked, keys, "right")))
    (paths, p0, p1), (los_rows, l0, l1), (detections, d0, d1) = groups
    return [
        ObservationFrame(times[i], paths[p0[i]:p1[i]], detections[d0[i]:d1[i]], los_rows[max(l0[i], l1[i] - 1):l1[i]])
        for i in range(len(keys))
    ]


# --- channel taps -------------------------------------------------------------

SENSING_TAPS_HEADER = ("time", "scatterer_id", "delay_s", "doppler_hz", "gain")

COMM_TAPS_HEADER = ("t", "q", "p", "kind", "path_id", "delay_s", "re", "im")


def write_sensing_taps(path: str, taps_by_time: Sequence[tuple[float, EchoColumns]]) -> None:
    rows = (
        [_fmt(t), str(sid), repr(delay), repr(doppler), repr(gain)]
        for t, taps in taps_by_time
        for sid, (delay, _, _, doppler, gain) in zip(taps.scatterer_id.tolist(), taps.table.tolist())
    )
    _write(path, "sensing_taps", SENSING_TAPS_HEADER, rows)


def write_comm_taps(path: str, taps_by_time: Iterable[tuple[float, TapBlock]]) -> None:
    """Write the taps of one frame at a time, the block's pairs in C order, formatted as by ``_write``."""
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


def write_trajectory(path: str, rows: Iterable[Sequence[str]]) -> None:
    _write(path, "trajectory", TRAJECTORY_HEADER, rows)


def read_trajectory(path: str) -> dict:
    """The trajectory's step, time, kind, ids and estimated position columns."""
    return read_columns(
        path, "trajectory", TRAJECTORY_HEADER, ("t", "est_x", "est_y", "est_z"), ("k", "path_id", "entity_id"),
        ("kind",),
    )


def write_summary(path: str, rows: Sequence[Sequence[str]]) -> None:
    _write(path, "track_summary", SUMMARY_HEADER, rows)


def write_rmse(path: str, rows: Sequence[Sequence[str]]) -> None:
    _write(path, "track_rmse", RMSE_HEADER, rows)


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


def read_spreads(path: str) -> dict:
    return read_columns(path, "spreads", SPREADS_HEADER, SPREADS_HEADER)


def write_cdf(path: str, values: Sequence[float], fractions: Sequence[float]) -> None:
    rows = [[_fmt(v), _fmt(f)] for v, f in zip(values, fractions)]
    _write(path, "cdf", CDF_HEADER, rows)


def write_ks(path: str, rows: Sequence[tuple[str, float]]) -> None:
    _write(path, "ks", KS_HEADER, [[name, _fmt(v)] for name, v in rows])
