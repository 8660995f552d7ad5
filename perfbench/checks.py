"""Independent checks of the program's outputs.

Everything here is recomputed with this module's own numpy code from
``scene.txt`` and ``config_resolved.ini``; nothing is imported from the
program. Each ``check_*`` function returns a list of failure messages,
empty when the stage's outputs pass.
"""

from __future__ import annotations

import configparser
import csv
import math
import os

import numpy as np

C = 299_792_458.0
LOS_ID = -1
SPREAD_COLUMNS = ("delay_spread_s", "aod_az_spread_rad", "aod_el_spread_rad",
                  "aoa_az_spread_rad", "aoa_el_spread_rad")
# agreement bound between tracked and true spread CDFs claimed by the paper
KS_BOUND = 0.1
# observation noise: mean and std must sit within this many standard errors
NOISE_Z = 5.0


def read_table(path: str, schema: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of an isacsim CSV, after its schema line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = fh.readline().rstrip("\n")
        if first != f"# isacsim {schema} v1":
            raise ValueError(f"{path}: bad schema line {first!r}")
        rows = [row for row in csv.reader(fh) if row]
    return rows[0], rows[1:]


def _columns(path: str, schema: str) -> dict[str, list[str]]:
    header, rows = read_table(path, schema)
    return {name: [r[i] for r in rows] for i, name in enumerate(header)}


def _f(values) -> np.ndarray:
    return np.array([float(v) for v in values])


def _close(got, want, rel: float, scale=None) -> np.ndarray:
    """Elementwise |got - want| <= rel * max(|want|, scale)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    ref = np.abs(want) if scale is None else np.maximum(np.abs(want), scale)
    return np.abs(got - want) <= rel * ref


def wrap(a):
    return np.mod(np.asarray(a) + np.pi, 2.0 * np.pi) - np.pi


def angles(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Azimuth and elevation of (N, 3) displacements."""
    r = np.sqrt(np.sum(d * d, axis=-1))
    return np.arctan2(d[..., 1], d[..., 0]), np.arcsin(np.clip(d[..., 2] / r, -1.0, 1.0))


def norm(d: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(d * d, axis=-1))


class Truth:
    """Ground truth rebuilt from scene.txt and config_resolved.ini."""

    def __init__(self, run_dir: str) -> None:
        cfg: dict[str, list[float]] = {}
        scat, paths = [], []
        with open(os.path.join(run_dir, "scene.txt"), encoding="utf-8") as fh:
            for line in fh.read().splitlines()[1:]:
                tag, *parts = line.split()
                if tag == "C":
                    cfg[parts[0]] = [float(v) for v in parts[1:]]
                elif tag == "S":
                    scat.append([float(parts[0]), float(parts[1]), 0.0 if parts[2] == "fb" else 1.0]
                                + [float(v) for v in parts[3:]])
                elif tag == "P":
                    paths.append([float(v) for v in parts])
        s = np.array(scat).reshape(-1, 12)
        self.sid = s[:, 0].astype(int)
        self.is_fb = s[:, 2] == 0.0
        self.birth, self.death = s[:, 3], s[:, 4]
        self.pos0, self.vel, self.rcs = s[:, 5:8], s[:, 8:11], s[:, 11]
        self.row_of = {int(i): n for n, i in enumerate(self.sid)}
        p = np.array(paths).reshape(-1, 5)
        self.path_id = p[:, 0].astype(int)
        self.fb_row = np.array([self.row_of[int(i)] for i in p[:, 1]], dtype=int)
        self.lb_row = np.array([self.row_of[int(i)] for i in p[:, 2]], dtype=int)
        self.virtual_delay = p[:, 4]
        self.bs = np.array(cfg["bs_position"])
        self.user0 = np.array(cfg["user_start"])
        self.user_vel = np.array(cfg["user_velocity"])
        self.duration = cfg["duration"][0]
        self.wavelength = C / cfg["carrier_hz"][0]
        self.pdp_decay = cfg["pdp_decay"][0]
        self.sigma_delay = cfg["sigma_delay"][0]
        self.sigma_angle = cfg["sigma_angle"][0]

        ini = configparser.ConfigParser(interpolation=None)
        ini.read(os.path.join(run_dir, "config_resolved.ini"), encoding="utf-8")
        self.ts = float(ini["tracker"]["ts"])
        self.k_factor = float(ini["channel"]["k_factor"])
        spacing = float(ini["arrays"]["spacing_wavelengths"]) * self.wavelength
        self.tx_off = self._offsets(int(ini["arrays"]["tx_rows"]), int(ini["arrays"]["tx_cols"]), spacing)
        self.rx_off = self._offsets(int(ini["arrays"]["rx_rows"]), int(ini["arrays"]["rx_cols"]), spacing)
        self.n_frames = int(round(self.duration / self.ts)) + 1

    @staticmethod
    def _offsets(rows: int, cols: int, spacing: float) -> np.ndarray:
        """Element p = row * cols + col sits row*spacing along z, col*spacing along y."""
        row, col = np.divmod(np.arange(rows * cols), cols)
        return np.stack([np.zeros(rows * cols), col * spacing, row * spacing], axis=1)

    def times(self) -> list[float]:
        return [k * self.ts for k in range(self.n_frames)]

    def user(self, t: float) -> np.ndarray:
        return self.user0 + self.user_vel * t

    def alive(self, t: float) -> np.ndarray:
        return (self.birth <= t) & (t < self.death)

    def positions(self, t: float) -> np.ndarray:
        return self.pos0 + self.vel * (t - self.birth)[:, None]

    def paths_at(self, t: float) -> dict[str, np.ndarray]:
        """Alive paths in stored order with delay, angles and power."""
        alive = self.alive(t)
        keep = alive[self.fb_row] & alive[self.lb_row]
        pos = self.positions(t)
        fb, lb = pos[self.fb_row[keep]], pos[self.lb_row[keep]]
        user = self.user(t)
        vd = self.virtual_delay[keep]
        delay = (norm(fb - self.bs) + norm(lb - user)) / C + vd
        raw = np.exp(-delay / self.pdp_decay)
        aod_az, aod_el = angles(fb - self.bs)
        aoa_az, aoa_el = angles(lb - user)
        return {
            "path_id": self.path_id[keep], "fb": fb, "lb": lb, "virtual_delay": vd,
            "delay": delay, "power": raw / raw.sum() if raw.size else raw,
            "aod_az": aod_az, "aod_el": aod_el, "aoa_az": aoa_az, "aoa_el": aoa_el,
        }

    def echoes_at(self, t: float) -> dict[str, np.ndarray]:
        """Alive first-bounce scatterers: id, distance, angles, Doppler, gain."""
        keep = self.alive(t) & self.is_fb
        disp = self.positions(t)[keep] - self.bs
        d = norm(disp)
        closing = -np.sum(self.vel[keep] * (disp / d[:, None]), axis=1)
        az, el = angles(disp)
        lam = self.wavelength
        return {
            "id": self.sid[keep], "distance": d, "az": az, "el": el,
            "doppler": 2.0 * closing / lam,
            "doppler_scale": 2.0 * norm(self.vel[keep]) / lam,
            "gain": lam**2 * self.rcs[keep] / (64.0 * math.pi**3 * d**4),
        }


def _noise(label: str, residuals: list[float], sigma: float) -> list[str]:
    """Residuals must look like zero-mean noise of std ``sigma``."""
    r = np.asarray(residuals, dtype=float)
    n = r.size
    if n < 2:
        return [f"{label}: only {n} residuals"]
    out = []
    mean, sd = float(np.mean(r)), float(np.std(r, ddof=1))
    if abs(mean) > NOISE_Z * sigma / math.sqrt(n):
        out.append(f"{label}: residual mean {mean:.3e} is off zero (sigma {sigma:.3e}, n {n})")
    if abs(sd / sigma - 1.0) > NOISE_Z / math.sqrt(2.0 * (n - 1)):
        out.append(f"{label}: residual std {sd:.3e} does not match sigma {sigma:.3e} (n {n})")
    return out


def _frame_times(truth: Truth, ks, ts_col) -> list[str]:
    bad = [k for k, t in zip(ks, ts_col) if float(t) != int(k) * truth.ts]
    return [f"frame times differ from k*Ts at k={bad[:5]}"] if bad else []


def check_observations(run_dir: str, truth: Truth) -> list[str]:
    """observations.csv and sensing_observations.csv against the truth."""
    fails: list[str] = []
    col = _columns(os.path.join(run_dir, "observations.csv"), "comm_observations")
    fails += _frame_times(truth, col["k"], col["t"])
    delay_res, angle_res = [], []
    by_k: dict[int, list[int]] = {}
    for i, k in enumerate(col["k"]):
        by_k.setdefault(int(k), []).append(i)
    if sorted(by_k) != list(range(truth.n_frames)):
        fails.append(f"observation frames {len(by_k)} != {truth.n_frames}")
    for k, rows in by_k.items():
        t = k * truth.ts
        tp = truth.paths_at(t)
        nlos = [i for i in rows if col["kind"][i] == "nlos"]
        los = [i for i in rows if col["kind"][i] == "los"]
        ids = [int(col["path_id"][i]) for i in nlos]
        if ids != [int(p) for p in tp["path_id"]] or len(los) != 1:
            fails.append(f"k={k}: observed paths {ids} (+{len(los)} LoS) != alive {list(tp['path_id'])}")
            continue
        if not np.all(_close(_f(col["power"][i] for i in nlos), tp["power"], 1e-9)):
            fails.append(f"k={k}: path powers differ from the delay profile")
        delay_res += list(_f(col["delay_s"][i] for i in nlos) - tp["delay"])
        for name, true in (("aod_az_rad", tp["aod_az"]), ("aod_el_rad", tp["aod_el"]),
                           ("aoa_az_rad", tp["aoa_az"]), ("aoa_el_rad", tp["aoa_el"])):
            angle_res += list(wrap(_f(col[name][i] for i in nlos) - true))
        user = truth.user(t)
        i = los[0]
        delay_res.append(float(col["delay_s"][i]) - norm(user - truth.bs) / C)
        (aod_az, aod_el), (aoa_az, aoa_el) = angles(user - truth.bs), angles(truth.bs - user)
        angle_res += list(wrap(_f([col["aod_az_rad"][i], col["aod_el_rad"][i],
                                   col["aoa_az_rad"][i], col["aoa_el_rad"][i]])
                               - np.array([aod_az, aod_el, aoa_az, aoa_el])))
    fails += _noise("comm delay", delay_res, truth.sigma_delay)
    fails += _noise("comm angles", angle_res, truth.sigma_angle)

    col = _columns(os.path.join(run_dir, "sensing_observations.csv"), "sensing_observations")
    fails += _frame_times(truth, col["k"], col["t"])
    delay_res, angle_res = [], []
    by_k = {}
    for i, k in enumerate(col["k"]):
        by_k.setdefault(int(k), []).append(i)
    for k in range(truth.n_frames):
        rows = by_k.get(k, [])
        e = truth.echoes_at(k * truth.ts)
        ids = [int(col["scatterer_id"][i]) for i in rows]
        if ids != [int(v) for v in e["id"]]:
            fails.append(f"k={k}: echoes {ids} != alive first bounces {list(e['id'])}")
            continue
        fails += _echo_laws(f"sensing_observations k={k}", e, _f(col["doppler_hz"][i] for i in rows),
                            _f(col["gain"][i] for i in rows))
        delay_res += list(_f(col["round_trip_delay_s"][i] for i in rows) - 2.0 * e["distance"] / C)
        angle_res += list(wrap(_f(col["az_rad"][i] for i in rows) - e["az"]))
        angle_res += list(wrap(_f(col["el_rad"][i] for i in rows) - e["el"]))
    fails += _noise("echo delay", delay_res, truth.sigma_delay)
    fails += _noise("echo angles", angle_res, truth.sigma_angle)
    return fails


def _echo_laws(where: str, e, doppler, gain) -> list[str]:
    fails = []
    if not np.all(_close(doppler, e["doppler"], 1e-12, e["doppler_scale"])):
        fails.append(f"{where}: Doppler differs from 2v/lambda")
    if not np.all(_close(gain, e["gain"], 1e-12)):
        fails.append(f"{where}: gain differs from lambda^2 rcs / (64 pi^3 d^4)")
    return fails


def check_sensing_taps(run_dir: str, truth: Truth) -> list[str]:
    col = _columns(os.path.join(run_dir, "sensing_taps.csv"), "sensing_taps")
    fails: list[str] = []
    by_t: dict[str, list[int]] = {}
    for i, t in enumerate(col["time"]):
        by_t.setdefault(t, []).append(i)
    for k, t in enumerate(truth.times()):
        rows = by_t.get(repr(t), [])
        e = truth.echoes_at(t)
        order = np.lexsort((e["id"], 2.0 * e["distance"] / C))
        ids = [int(col["scatterer_id"][i]) for i in rows]
        if ids != [int(e["id"][j]) for j in order]:
            fails.append(f"sensing taps at k={k}: {ids} != alive first bounces by delay")
            continue
        e = {key: v[order] for key, v in e.items()}
        if not np.all(_close(_f(col["delay_s"][i] for i in rows), 2.0 * e["distance"] / C, 1e-12)):
            fails.append(f"sensing taps at k={k}: delay differs from 2d/c")
        fails += _echo_laws(f"sensing taps k={k}", e, _f(col["doppler_hz"][i] for i in rows),
                            _f(col["gain"][i] for i in rows))
    return fails


def check_comm_taps(run_dir: str, truth: Truth, all_pairs: bool) -> list[str]:
    """Row count, spherical-wavefront delays and the K : 1 power split."""
    header, rows = read_table(os.path.join(run_dir, "comm_taps.csv"), "comm_taps")
    n_tx, n_rx = truth.tx_off.shape[0], truth.rx_off.shape[0]
    pairs = n_tx * n_rx if all_pairs else 1
    times = truth.times()
    frames = [truth.paths_at(t) for t in times]
    want_rows = sum(pairs * (1 + f["path_id"].size) for f in frames)
    if len(rows) != want_rows:
        return [f"comm_taps.csv has {len(rows)} rows, expected {want_rows}"]
    frame_of = {repr(t): k for k, t in enumerate(times)}
    try:
        k = np.array([frame_of[r[0]] for r in rows])
    except KeyError as exc:
        return [f"comm_taps.csv: unexpected time {exc.args[0]}"]
    q = np.array([int(r[1]) for r in rows])
    p = np.array([int(r[2]) for r in rows])
    pid = np.array([int(r[4]) for r in rows])
    los = np.array([r[3] == "los" for r in rows])
    delay = np.array([float(r[5]) for r in rows])
    power = np.array([float(r[6]) ** 2 + float(r[7]) ** 2 for r in rows])
    fails: list[str] = []
    if np.any(los != (pid == LOS_ID)):
        fails.append("comm_taps.csv: kind and path id disagree")
    if not np.all((0 <= q) & (q < n_rx) & (0 <= p) & (p < n_tx)):
        return fails + ["comm_taps.csv: antenna index out of range"]

    tx = truth.bs + truth.tx_off[p]
    user = np.array([truth.user(times[i]) for i in range(len(times))])
    rx = user[k] + truth.rx_off[q]
    want = norm(tx - rx) / C
    nlos = ~los
    slot = {}
    for f, fr in enumerate(frames):
        for j, path in enumerate(fr["path_id"]):
            slot[(f, int(path))] = (fr["fb"][j], fr["lb"][j], fr["virtual_delay"][j])
    try:
        geo = [slot[(f, i)] for f, i in zip(k[nlos], pid[nlos])]
    except KeyError as exc:
        return fails + [f"comm_taps.csv: tap of a path not alive at its frame {exc.args[0]}"]
    fb = np.array([g[0] for g in geo]).reshape(-1, 3)
    lb = np.array([g[1] for g in geo]).reshape(-1, 3)
    vd = np.array([g[2] for g in geo])
    want[nlos] = (norm(fb - tx[nlos]) + norm(lb - rx[nlos])) / C + vd
    bad = ~_close(delay, want, 1e-12)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        fails.append(f"comm_taps.csv row {i + 3}: delay {delay[i]!r} != spherical-wavefront {want[i]!r}")

    key = (k * n_rx + q) * n_tx + p
    n_keys = len(times) * n_rx * n_tx
    count = np.bincount(key, minlength=n_keys)
    n_los = np.bincount(key, weights=los.astype(float), minlength=n_keys)
    p_los = np.bincount(key, weights=np.where(los, power, 0.0), minlength=n_keys)
    p_nlos = np.bincount(key, weights=np.where(los, 0.0, power), minlength=n_keys)
    present = count > 0
    alive = np.repeat([f["path_id"].size for f in frames], n_rx * n_tx)
    if np.any(count[present] != 1 + alive[present]) or np.any(n_los[present] != 1):
        fails.append("comm_taps.csv: some antenna pair lacks its LoS tap or a path tap")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = p_los[present] / p_nlos[present]
    if not np.all(_close(ratio, truth.k_factor, 1e-9)):
        fails.append(f"comm_taps.csv: LoS/NLoS power ratio {ratio[~_close(ratio, truth.k_factor, 1e-9)][0]!r}"
                     f" != K = {truth.k_factor!r}")
    return fails


def check_simulate(run_dir: str, all_pairs: bool) -> list[str]:
    truth = Truth(run_dir)
    return (check_observations(run_dir, truth) + check_sensing_taps(run_dir, truth)
            + check_comm_taps(run_dir, truth, all_pairs))


def _optional(v: str) -> float:
    return float(v) if v != "" else math.nan


def check_track(run_dir: str, track_dir: str) -> list[str]:
    """Truth columns and errors of trajectory.csv; rmse.csv from the final errors."""
    truth = Truth(run_dir)
    col = _columns(os.path.join(track_dir, "trajectory.csv"), "trajectory")
    fails = _frame_times(truth, col["k"], col["t"])
    n = len(col["k"])
    want = np.full((n, 6), np.nan)
    for i in range(n):
        t = int(col["k"][i]) * truth.ts
        if col["kind"][i] == "user":
            want[i] = np.concatenate([truth.user(t), truth.user_vel])
        else:
            row = truth.row_of[int(col["entity_id"][i])]
            if truth.birth[row] <= t < truth.death[row]:
                want[i] = np.concatenate([truth.positions(t)[row], truth.vel[row]])
    got = np.array([[_optional(col[c][i]) for c in ("truth_x", "truth_y", "truth_z", "truth_vx",
                                                    "truth_vy", "truth_vz")] for i in range(n)])
    if not np.array_equal(np.isnan(got), np.isnan(want)) or not np.all(
            _close(got[~np.isnan(want)], want[~np.isnan(want)], 1e-12, 1e-9)):
        fails.append("trajectory.csv: truth columns differ from the scene")
    est = np.array([[float(col[c][i]) for c in ("est_x", "est_y", "est_z")] for i in range(n)])
    err = _f(_optional(v) for v in col["pos_error_m"])
    want_err = norm(est - want[:, :3])
    if not np.array_equal(np.isnan(err), np.isnan(want_err)) or not np.all(
            _close(err[~np.isnan(err)], want_err[~np.isnan(err)], 1e-12, 1e-12)):
        fails.append("trajectory.csv: pos_error_m differs from |estimate - truth|")

    last_k = max(int(k) for k in col["k"])
    per_cloud: dict[tuple[str, str], list[float]] = {}
    final: dict[tuple[str, str], float] = {}
    for i in range(n):
        key = (col["kind"][i], col["path_id"][i])
        per_cloud.setdefault(key, [])
        if not math.isnan(err[i]):
            per_cloud[key].append(err[i])
        if int(col["k"][i]) == last_k:
            final[key] = err[i]
    rmse = {r[0]: r for r in read_table(os.path.join(track_dir, "rmse.csv"), "track_rmse")[1]}
    for kind in ("user", "fb", "lb"):
        keys = [key for key in per_cloud if key[0] == kind]
        finals = [final[key] for key in keys if not math.isnan(final.get(key, math.nan))]
        if not finals:
            continue
        if kind not in rmse:
            fails.append(f"rmse.csv lacks kind {kind}")
            continue
        want_final = math.sqrt(float(np.mean(np.square(finals))))
        want_mean = float(np.mean([np.mean(per_cloud[key]) for key in keys if per_cloud[key]]))
        _, n_clouds, got_final, got_mean = rmse[kind]
        if int(n_clouds) != len(keys) or not _close(float(got_final), want_final, 1e-9) \
                or not _close(float(got_mean), want_mean, 1e-9):
            fails.append(f"rmse.csv {kind}: {rmse[kind][1:]} != RMS of final errors "
                         f"({len(keys)}, {want_final!r}, {want_mean!r})")
    return fails


def spreads(power, delay, aod_az, aod_el, aoa_az, aoa_el) -> list[float]:
    """Power-weighted delay and angle spreads; azimuths about their circular mean."""
    w = np.asarray(power) / np.sum(power)

    def std(v):
        mean = np.sum(w * v)
        return float(np.sqrt(np.sum(w * (v - mean) ** 2)))

    def az_std(az):
        centre = np.arctan2(np.sum(w * np.sin(az)), np.sum(w * np.cos(az)))
        return std(wrap(az - centre))

    return [std(delay), az_std(aod_az), std(aod_el), az_std(aoa_az), std(aoa_el)]


def _check_spreads(sts_dir: str, label: str, want: list[tuple[int, float, list[float]]]) -> list[str]:
    col = _columns(os.path.join(sts_dir, f"spreads_{label}.csv"), "spreads")
    fails = []
    if [int(k) for k in col["k"]] != [w[0] for w in want]:
        return [f"spreads_{label}.csv: frames differ from the frames with paths"]
    if [float(t) for t in col["t"]] != [w[1] for w in want]:
        fails.append(f"spreads_{label}.csv: times differ")
    want_cols = np.array([w[2] for w in want]).reshape(-1, 5)
    for j, name in enumerate(SPREAD_COLUMNS):
        got = _f(col[name])
        scale = 1e-300 + float(np.max(np.abs(want_cols[:, j])))
        if not np.all(_close(got, want_cols[:, j], 1e-9, scale * 1e-3)):
            fails.append(f"spreads_{label}.csv: {name} differs from the recomputed spread")
        cdf = _columns(os.path.join(sts_dir, f"cdf_{name}_{label}.csv"), "cdf")
        m = got.size
        if not (np.array_equal(_f(cdf["value"]), np.sort(got))
                and np.array_equal(_f(cdf["fraction"]), np.arange(1, m + 1) / m)):
            fails.append(f"cdf_{name}_{label}.csv is not the empirical CDF of its spreads")
    return fails


def check_stats_scene(run_dir: str, sts_dir: str) -> list[str]:
    truth = Truth(run_dir)
    want = []
    for k, t in enumerate(truth.times()):
        tp = truth.paths_at(t)
        if tp["path_id"].size:
            want.append((k, t, spreads(tp["power"], tp["delay"], tp["aod_az"], tp["aod_el"],
                                       tp["aoa_az"], tp["aoa_el"])))
    return _check_spreads(sts_dir, "oracle", want)


def check_stats_trajectory(run_dir: str, track_dir: str, sts_dir: str) -> list[str]:
    """Spreads of the tracked estimates, over each frame's observed paths."""
    truth = Truth(run_dir)
    traj = _columns(os.path.join(track_dir, "trajectory.csv"), "trajectory")
    est = {}
    for i, k in enumerate(traj["k"]):
        est[(int(k), traj["kind"][i], int(traj["path_id"][i]))] = np.array(
            [float(traj["est_x"][i]), float(traj["est_y"][i]), float(traj["est_z"][i])])
    obs = _columns(os.path.join(run_dir, "observations.csv"), "comm_observations")
    frames: dict[int, list[tuple[int, float]]] = {}
    times: dict[int, float] = {}
    for i, k in enumerate(obs["k"]):
        times.setdefault(int(k), float(obs["t"][i]))
        if obs["kind"][i] == "nlos":
            frames.setdefault(int(k), []).append((int(obs["path_id"][i]), float(obs["power"][i])))
    want = []
    for k in sorted(times):
        user = est.get((k, "user", LOS_ID))
        if user is None:
            continue
        rows = [(est[(k, "fb", pid)], est[(k, "lb", pid)], power) for pid, power in frames.get(k, [])
                if (k, "fb", pid) in est and (k, "lb", pid) in est]
        if not rows:
            continue
        fb = np.array([r[0] for r in rows])
        lb = np.array([r[1] for r in rows])
        delay = (norm(fb - truth.bs) + norm(user - lb)) / C
        aod_az, aod_el = angles(fb - truth.bs)
        aoa_az, aoa_el = angles(lb - user)
        want.append((k, times[k], spreads(np.array([r[2] for r in rows]), delay,
                                          aod_az, aod_el, aoa_az, aoa_el)))
    return _check_spreads(sts_dir, "tracked", want)


def ks_distance(a, b) -> float:
    a, b = np.sort(np.asarray(a, dtype=float)), np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def check_ks_values(sts_dir: str) -> list[str]:
    """ks.csv equals the two-sample KS distance of the two spread files."""
    a = _columns(os.path.join(sts_dir, "spreads_oracle.csv"), "spreads")
    b = _columns(os.path.join(sts_dir, "spreads_tracked.csv"), "spreads")
    header, rows = read_table(os.path.join(sts_dir, "ks.csv"), "ks")
    if [r[0] for r in rows] != list(SPREAD_COLUMNS):
        return [f"ks.csv quantities {[r[0] for r in rows]} != {list(SPREAD_COLUMNS)}"]
    fails = []
    for name, value in rows:
        want = ks_distance(_f(a[name]), _f(b[name]))
        if abs(float(value) - want) > 1e-12:
            fails.append(f"ks.csv {name}: {value} != recomputed {want!r}")
    return fails


def check_agreement(sts_dir: str) -> list[str]:
    """Every KS distance within the paper's agreement bound."""
    _, rows = read_table(os.path.join(sts_dir, "ks.csv"), "ks")
    return [f"KS {name} = {float(v):.4f} exceeds {KS_BOUND}" for name, v in rows if float(v) > KS_BOUND]

