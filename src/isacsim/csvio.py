"""CSV schemas for simulator artifacts.

Every file starts with a version line ``# isacsim <schema> v<n>`` (v1
except where ``_VERSIONS`` says otherwise) followed by a header row. Floats are written with repr() so a write/read cycle
reproduces the values bit for bit; nothing time- or host-dependent is
emitted, so equal inputs give byte-identical files. Rows are parsed by
numpy's C reader, or by the exact Python parser where the C reader
could differ from it (``read_columns``). Every file is written by
``_write`` from a list of parts that yield whole lines. ``pipeline.split``
cuts each large file (the observations, comm taps and trajectory) into
ranges of its frames, rx rows or steps, one per CPU; each part but the
first is formatted in a forked child and appended in order, so the bytes
are those of one process.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import signal
import warnings
from typing import Iterable, Iterator, Sequence

import numpy as np

from .comm import KIND_LOS, KIND_NLOS, TapBlock
from .geometry import normalize_angle_columns
from .pipeline import Score, split
from .scene import (
    LOS_PATH_ID,
    EchoColumns,
    Observations,
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


def _write(path: str, name: str, header: Sequence[str], parts: Sequence[Iterable[str]]) -> None:
    """Write the schema line, the header, then the whole lines each of ``parts`` yields, in order.

    The first part is formatted here and each other in a forked child, into an anonymous file in
    the output directory appended once the child exits 0. A part whose child cannot be started, or
    fails, is formatted here in its turn, so an error in it raises as in one process. No child
    outlives the call: on an error every child not yet reaped is killed and reaped."""
    children = {}  # part index: (pid, fd) of the child formatting it
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(_schema_line(name) + "\n" + ",".join(header) + "\n")
            directory = os.path.dirname(path) or os.curdir
            for i in range(1, len(parts)):
                child = _fork_part(directory, parts[i])
                if child is not None:
                    children[i] = child
            for i, part in enumerate(parts):
                done = False
                if i in children:
                    pid, fd = children[i]
                    done = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
                    del children[i]
                    try:
                        if done:
                            fh.flush()
                            _append(fh.fileno(), fd)
                    finally:
                        os.close(fd)
                if not done:
                    fh.writelines(part)
    finally:
        for pid, fd in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)


def _fork_part(directory: str, part: Iterable[str]) -> tuple[int, int] | None:
    """(pid, fd) of a forked child that writes ``part`` into the anonymous file ``fd`` in ``directory``
    and exits 0; None where there is no fork or anonymous file, or it cannot be made."""
    if not hasattr(os, "fork") or not hasattr(os, "O_TMPFILE"):
        return None
    try:
        fd = os.open(directory, os.O_TMPFILE | os.O_RDWR, 0o600)
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(fd)
        return None
    if pid == 0:
        code = 1
        try:
            with open(fd, "w", encoding="utf-8", newline="", closefd=False) as out:
                out.writelines(part)
            code = 0
        finally:
            os._exit(code)  # never back into the caller's code, and no buffer of the parent's flushed twice
    return pid, fd


def _append(out: int, fd: int) -> None:
    """Append the whole file ``fd`` to the file ``out`` in the kernel, with no user-space buffer."""
    offset, size = 0, os.fstat(fd).st_size
    while offset < size:
        offset += os.sendfile(out, fd, offset, size - offset)


def _joined(rows: Iterable[Sequence[str]]) -> list[Iterable[str]]:
    """``rows`` as one part, each row's fields joined by commas: no field of any
    schema ever needs CSV quoting, so the bytes equal those of ``csv.writer``."""
    return [(",".join(row) + "\n" for row in rows)]


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


_BLOCK = 256  # rows held as strings at once while parsing or writing
_SEPARATORS = b"\x1c\x1d\x1e\x1f"  # white space around a number to np.loadtxt, but not to float() and int()


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

    Every row must have one field per header column. Blank lines are
    skipped. numpy's C reader (``np.loadtxt``) parses the rows, with a
    dtype for every header column, so it checks the field count too.
    Where it raises or reads a non-finite float, or the file holds one of
    ``_SEPARATORS``, the exact parser reads the rows again by Python's
    ``float`` and ``int``, a block at a time, which bounds the strings
    held at once. It reports the first bad row with its file and line:
    its field count if wrong, else its first bad field in ``floats`` then
    ``ints`` order.
    """
    parsed = [(key, float) for key in floats] + [(key, int) for key in ints]
    parts = {key: [] for key in [*floats, *ints, *strings]}
    dtype = [(key, float if key in floats else int if key in ints else object if key in strings else "U1")
             for key in header]  # unread columns as one character
    with open(path, "rb") as raw:
        separated = any(c in chunk for chunk in iter(lambda: raw.read(1 << 16), b"") for c in _SEPARATORS)
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
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(fh, dtype, comments=None, delimiter=",", quotechar='"', ndmin=1)
        except ValueError:
            table = None
        if table is not None and not separated and all(np.isfinite(table[key]).all() for key in floats):
            return {key: table[key].copy() for key, _ in parsed} | {key: tuple(table[key].tolist()) for key in strings}
        fh.seek(0)
        reader = csv.reader(fh)
        next(reader), next(reader)  # the schema line and the header, both checked
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


def write_comm_observations(path: str, observations: Observations) -> None:
    """Each frame's path rows, then its LoS row; a part per range of frames of ``pipeline.split``."""

    def lines(ks: range) -> Iterator[str]:
        for k in ks:
            paths, _, los = (slice(a, b) for a, b in zip(*observations.offsets[k:k + 2].tolist()))
            head = f"{k},{_fmt(observations.times[k])}"
            for kind, part in ((KIND_NLOS, observations.comm_paths[paths]), (KIND_LOS, observations.los[los])):
                for (pid, fb, lb, cluster), (power, delay, aod_az, aod_el, aoa_az, aoa_el), (aod_deg, aoa_deg) in zip(
                    part.ids.tolist(), part.table.tolist(), part.degenerate.tolist()
                ):
                    yield (f"{head},{kind},{pid},{fb},{lb},{cluster},{delay!r},{aod_az!r},{aod_el!r},{aod_deg:d},"
                           f"{aoa_az!r},{aoa_el!r},{aoa_deg:d},{power!r}\n")

    rows = np.diff(observations.offsets[:, 0] + observations.offsets[:, 2])
    _write(path, "comm_observations", OBS_COMM_HEADER, [lines(r) for r in split(rows, len(OBS_COMM_HEADER))])


def write_sensing_observations(path: str, observations: Observations) -> None:
    """Each frame's echo rows; a part per range of frames of ``pipeline.split``."""

    def lines(ks: range) -> Iterator[str]:
        for k in ks:
            echoes = observations.sensing_detections[slice(*observations.offsets[k:k + 2, 1].tolist())]
            head = f"{k},{_fmt(observations.times[k])}"
            for sid, (delay, az, el, doppler, gain), deg in zip(
                echoes.scatterer_id.tolist(), echoes.table.tolist(), echoes.degenerate.tolist()
            ):
                yield f"{head},{sid},{delay!r},{az!r},{el!r},{deg:d},{doppler!r},{gain!r}\n"

    rows = np.diff(observations.offsets[:, 1])
    _write(path, "sensing_observations", OBS_SENSING_HEADER, [lines(r) for r in split(rows, len(OBS_SENSING_HEADER))])


def _flags(column: tuple[str, ...]) -> np.ndarray:
    return np.array(column, dtype=str) == "1"


def read_observations(comm_path: str, sensing_path: str) -> Observations:
    """Rebuild a run's observations from the two observation files.

    Frames come in order of k, each at the time of its first row (comm
    rows before sensing rows). Within a frame rows keep their file order,
    and of several LoS rows the last one counts.
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
    parts, offsets = [], []
    for part, k, is_los in ((comm[~los], c["k"][~los], False), (echoes, s["k"], False), (comm[los], c["k"][los], True)):
        order = np.argsort(k, kind="stable")
        start, stop = (np.searchsorted(k[order], keys, side) for side in ("left", "right"))
        if is_los:  # of several LoS rows in a frame, the last one counts
            order, start = order[stop[stop > start] - 1], np.cumsum(stop > start) - (stop > start)
        parts.append(part[order])
        offsets.append(np.append(start, len(order)))
    return Observations(times, *parts, np.column_stack(offsets))


# --- channel taps -------------------------------------------------------------

SENSING_TAPS_HEADER = ("time", "scatterer_id", "delay_s", "doppler_hz", "gain")

COMM_TAPS_HEADER = ("t", "q", "p", "kind", "path_id", "delay_s", "re", "im")


def write_sensing_taps(path: str, observations: Observations, taps: EchoColumns) -> None:
    """Each frame's sensing taps, laid out as the echoes of ``observations``."""
    bounds = observations.offsets[:, 1].tolist()
    rows = (
        [_fmt(t), str(sid), repr(delay), repr(doppler), repr(gain)]
        for t, a, b in zip(observations.times, bounds, bounds[1:])
        for sid, (delay, _, _, doppler, gain) in zip(taps.scatterer_id[a:b].tolist(), taps.table[a:b].tolist())
    )
    _write(path, "sensing_taps", SENSING_TAPS_HEADER, _joined(rows))


def _tap_lines(taps_by_time: Iterable[tuple[float, TapBlock]]) -> Iterator[str]:
    """Each frame's taps, the block's pairs in C order, ``_BLOCK`` lines at a time; the columns are
    flattened a row of pairs (an rx row of a grid) at a time, so the next kernel pass runs beside no
    more than a row's copies."""
    for t, taps in taps_by_time:
        n, ts = taps.delay.shape[-1], _fmt(t)
        for row in zip(taps.q, taps.p, taps.path_id, taps.delay, taps.re, taps.im):
            columns = [np.repeat(row[0], n), np.repeat(row[1], n)] + [a.ravel() for a in row[2:]]
            for i in range(0, columns[0].size, _BLOCK):
                q, p, pid, *values = (c[i:i + _BLOCK].tolist() for c in columns)
                kind = [KIND_LOS if j == LOS_PATH_ID else KIND_NLOS for j in pid]
                yield "".join(f"{ts},{q},{p},{kind},{pid},{d!r},{re!r},{im!r}\n"
                              for q, p, kind, pid, d, re, im in zip(q, p, kind, pid, *values))


def write_comm_taps(path: str, parts: Sequence[Iterable[tuple[float, TapBlock]]]) -> None:
    """Write the taps of each of ``parts``, consecutive runs of the dump, in order."""
    _write(path, "comm_taps", COMM_TAPS_HEADER, [_tap_lines(part) for part in parts])


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


def write_trajectory(path: str, score: Score) -> None:
    """A row per step and cloud in the batch of ``score``; a part per range of steps of ``pipeline.split``."""
    # the fields fixed per entity are formatted once; an entity not alive has no truth
    entities = [f"{kind},{pid},{eid}" for kind, pid, eid, *_ in score.clouds]
    velocities = [f"{vx!r},{vy!r},{vz!r}" for vx, vy, vz in score.truth_vel.tolist()]

    def lines(ks: range) -> Iterator[str]:
        for k in ks:
            m, head = score.members[k], f"{k},{score.times[k]!r}"
            for e, (x, y, z, vx, vy, vz), (px, py, pz), err, known, coast, div in zip(
                m.tolist(), score.estimates[k, m].tolist(), score.truth_pos[k, m].tolist(),
                score.errors[k, m].tolist(), score.alive[k, m].tolist(), score.coasted[k, m].tolist(),
                score.diverged[k, m].tolist(),
            ):
                truth = f"{px!r},{py!r},{pz!r},{velocities[e]},{err!r}" if known else ",,,,,,"
                yield f"{head},{entities[e]},{x!r},{y!r},{z!r},{vx!r},{vy!r},{vz!r},{truth},{coast},{div}\n"

    rows = [m.size for m in score.members]
    _write(path, "trajectory", TRAJECTORY_HEADER, [lines(r) for r in split(rows, len(TRAJECTORY_HEADER))])


def read_trajectory(path: str) -> dict:
    """The trajectory's step, time, kind, ids and estimated position columns."""
    return read_columns(
        path, "trajectory", TRAJECTORY_HEADER, ("t", "est_x", "est_y", "est_z"), ("k", "path_id", "entity_id"),
        ("kind",),
    )


def write_summary(path: str, rows: Sequence[Sequence[str]]) -> None:
    _write(path, "track_summary", SUMMARY_HEADER, _joined(rows))


def write_rmse(path: str, rows: Sequence[Sequence[str]]) -> None:
    _write(path, "track_rmse", RMSE_HEADER, _joined(rows))


# --- statistics outputs ---------------------------------------------------------

SPREADS_HEADER = (
    "k", "t", "delay_spread_s",
    "aod_az_spread_rad", "aod_el_spread_rad",
    "aoa_az_spread_rad", "aoa_el_spread_rad",
)

CDF_HEADER = ("value", "fraction")

KS_HEADER = ("quantity", "ks_distance")


def write_spreads(path: str, rows: Sequence[tuple[int, float, tuple[float, float, float, float, float]]]) -> None:
    out = ([str(k), _fmt(t)] + [_fmt(s) for s in spreads] for k, t, spreads in rows)
    _write(path, "spreads", SPREADS_HEADER, _joined(out))


def read_spreads(path: str) -> dict:
    return read_columns(path, "spreads", SPREADS_HEADER, SPREADS_HEADER)


def write_cdf(path: str, values: Sequence[float], fractions: Sequence[float]) -> None:
    _write(path, "cdf", CDF_HEADER, _joined([_fmt(v), _fmt(f)] for v, f in zip(values, fractions)))


def write_ks(path: str, rows: Sequence[tuple[str, float]]) -> None:
    _write(path, "ks", KS_HEADER, _joined([name, _fmt(v)] for name, v in rows))
