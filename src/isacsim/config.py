"""Run configuration: one INI file covering scene, arrays, channel, tracker.

Every key is optional; defaults reproduce the shipped reference setup
(28 GHz carrier, 32x4 transmit and 2x2 receive arrays, 20 s at 10 Hz).
Unknown sections or keys are rejected with the offending line number.
Angles are written in degrees in the file and converted here.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .antenna import PlanarArray
from .comm import CommParams
from .geometry import ORIGIN, Vec3, check_finite
from .scene import ConfigError, SceneConfig, render_value
from .tracker import TrackerConfig

MAX_FRAMES = 10**6  # a run holds at most this many frames (the shipped config has 201)
# s, for [tracker] ts: frame times then stay under MAX_FRAMES s, where their rounding stays under the 1e-9 s
# by which tracker.step matches a frame to the last one plus ts, and positions stay finite (scene.MAX_COORDINATE)
MAX_TS = 1.0


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulate/track/stats run needs."""

    scene: SceneConfig = SceneConfig()
    comm: CommParams = CommParams()
    tracker: TrackerConfig = TrackerConfig()
    tx_rows: int = 32
    tx_cols: int = 4
    rx_rows: int = 2
    rx_cols: int = 2
    spacing_wavelengths: float = 0.5

    def validate(self) -> None:
        check_finite(self, ConfigError)
        if self.scene.seed < 0:
            raise ConfigError(f"[run] seed must be nonnegative, got {self.scene.seed}")
        self.scene.validate()
        self.comm.validate()
        self.tracker.validate()
        for name in ("tx_rows", "tx_cols", "rx_rows", "rx_cols"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.spacing_wavelengths <= 0.0:
            raise ConfigError("spacing_wavelengths must be positive")
        if self.tracker.ts > MAX_TS:
            raise ConfigError(f"ts must be at most {MAX_TS:g} s, got {self.tracker.ts!r}")
        frames = self.scene.duration / self.tracker.ts
        if not math.isfinite(frames) or self.n_frames > MAX_FRAMES:
            raise ConfigError(f"duration / ts gives {frames} frames, more than {MAX_FRAMES}")

    def tx_array(self) -> PlanarArray:
        return self._array(self.tx_rows, self.tx_cols, self.scene.bs_position)

    def rx_template(self) -> PlanarArray:
        return self._array(self.rx_rows, self.rx_cols, ORIGIN)

    def _array(self, rows: int, cols: int, origin: Vec3) -> PlanarArray:
        """Elements ``spacing_wavelengths`` wavelengths apart, rows along z and columns along y."""
        spacing = self.spacing_wavelengths * self.scene.wavelength
        return PlanarArray(rows, cols, spacing, origin, Vec3(0.0, 0.0, 1.0), Vec3(0.0, 1.0, 0.0))

    @property
    def n_frames(self) -> int:
        """Frames k * ts within the duration, k = 0 included (to 1e-9 of a frame)."""
        return math.floor(self.scene.duration / self.tracker.ts + 1e-9) + 1

    def frame_times(self) -> list[float]:
        """The frame times k * ts, k = 0 .. n_frames - 1."""
        # clamped: k * Ts can overshoot the scene's end by rounding (3 * 0.1 > 0.3)
        return [min(k * self.tracker.ts, self.scene.duration) for k in range(self.n_frames)]


# Every INI key, in file order: (section, the RunConfig field whose
# dataclass holds the keys ("" for RunConfig itself), keys). A key is its
# field's name except for the angles below, written in degrees and held
# in radians.
_SCHEMA: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("run", "scene", ("seed", "duration")),
    ("scene", "scene", (
        "n_clusters", "fb_per_cluster", "lb_per_cluster",
        "region_min", "region_max", "speed_min", "speed_max",
        "birth_death_rate", "rcs_min", "rcs_max",
        "sigma_delay", "sigma_angle_deg", "pdp_decay", "virtual_delay_max",
        "bs_position", "user_start", "user_velocity",
    )),
    ("arrays", "", ("tx_rows", "tx_cols", "rx_rows", "rx_cols", "spacing_wavelengths")),
    ("channel", "scene", ("carrier_hz",)),
    ("channel", "comm", ("k_factor",)),
    ("tracker", "tracker", (
        "n_particles", "ts", "process_pos_std", "process_vel_std",
        "meas_delay_std", "meas_angle_deg", "init_pos_std", "init_vel_std",
        "gate_sigma",
    )),
)
_DEGREE_FIELDS = {"sigma_angle_deg": "sigma_angle", "meas_angle_deg": "meas_angle_std"}
_KEYS = [(section, holder, key) for section, holder, keys in _SCHEMA for key in keys]


def _line_numbers(text: str) -> dict[tuple[str, str], int]:
    """The line of each ``[section]`` header, at (section, ""), and of each key within
    it, at (section, key), the key lowercased as configparser reads it."""
    lines, section = {}, ""
    for lineno, line in enumerate(text.splitlines(), start=1):
        header = configparser.ConfigParser.SECTCRE.match(line.strip())
        option = configparser.ConfigParser.OPTCRE.match(line.strip())
        if header:
            section = header.group("header")
            lines.setdefault((section, ""), lineno)
        elif option:
            lines.setdefault((section, option.group("option").rstrip().lower()), lineno)
    return lines


def _degrees(radians: float) -> float:
    """Degrees whose ``math.radians`` is ``radians`` exactly: of math.degrees(radians) and
    its two neighbouring floats, the shortest written one that is; else math.degrees(radians)."""
    d = math.degrees(radians)
    exact = [c for c in (d, math.nextafter(d, -math.inf), math.nextafter(d, math.inf)) if math.radians(c) == radians]
    return min(exact, key=lambda c: len(repr(c)), default=d)


def _file_value(rc: RunConfig, holder: str, key: str):
    """The value of ``key`` in ``rc``, in the file's units."""
    value = getattr(getattr(rc, holder) if holder else rc, _DEGREE_FIELDS.get(key, key))
    return _degrees(value) if key in _DEGREE_FIELDS else value


def parse_value(raw: str, like, key: str):
    """``raw`` read as the type of ``like``; a Vec3 is three numbers split by spaces or commas."""
    if not isinstance(like, Vec3):
        return type(like)(raw)
    parts = raw.replace(",", " ").split()
    if len(parts) != 3:
        raise ConfigError(f"{key}: expected three numbers, got {raw!r}")
    return Vec3(float(parts[0]), float(parts[1]), float(parts[2]))


def parse_run_config(text: str) -> RunConfig:
    """Parse INI text into a RunConfig; unknown keys are errors."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    lines = _line_numbers(text)

    known = {section: {key for s, _, key in _KEYS if s == section} for section, _, _ in _SCHEMA}
    for key in cp.defaults():  # configparser would copy it into every section
        raise ConfigError(f"unknown key {key!r} in [DEFAULT] at line {lines.get(('DEFAULT', key), 0)}")
    for section in cp.sections():
        if section not in known:
            raise ConfigError(f"unknown section [{section}] at line {lines.get((section, ''), 0)}")
        for key in cp.options(section):
            if key not in known[section]:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}] at line {lines.get((section, key), 0)}"
                )

    defaults = RunConfig()
    values: dict[str, dict[str, object]] = {holder: {} for _, holder, _ in _SCHEMA}
    for section, holder, key in _KEYS:
        if not cp.has_option(section, key):
            continue
        try:
            value = parse_value(cp.get(section, key), _file_value(defaults, holder, key), key)
        except ValueError as exc:
            raise ConfigError(
                f"bad value for {key!r} in [{section}] at line {lines.get((section, key), 0)}: {exc}"
            ) from exc
        if key in _DEGREE_FIELDS:
            values[holder][_DEGREE_FIELDS[key]] = math.radians(value)
        else:
            values[holder][key] = value
    rc = RunConfig(
        scene=SceneConfig(**values["scene"]),
        comm=CommParams(**values["comm"]),
        tracker=TrackerConfig(**values["tracker"]),
        **values[""],
    )
    rc.validate()
    return rc


def load_run_config(path: str | None) -> RunConfig:
    """RunConfig from an INI file; None gives the defaults."""
    if path is None:
        return parse_run_config("")
    with open(path, "r", encoding="utf-8") as fh:
        return parse_run_config(fh.read())


def resolved_config_text(rc: RunConfig) -> str:
    """Render every effective value as INI text (defaults included).

    The output parses back to an identical RunConfig, so a run directory
    always carries its exact configuration.
    """
    lines: list[str] = []
    for section, holder, key in _KEYS:
        if f"[{section}]" not in lines:
            lines += ([""] if lines else []) + [f"[{section}]"]
        lines.append(f"{key} = {render_value(_file_value(rc, holder, key))}")
    return "\n".join(lines) + "\n"
