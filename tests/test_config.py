import contextlib
import io
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isacsim import config
from isacsim.antenna import PlanarArray
from isacsim.cli import main
from isacsim.config import (
    RunConfig,
    load_run_config,
    parse_run_config,
    resolved_config_text,
)
from isacsim.geometry import ORIGIN, Vec3
from isacsim.scene import ConfigError, SceneConfig


def test_empty_text_gives_defaults():
    rc = parse_run_config("")
    assert rc.scene == SceneConfig()
    assert rc.tx_rows == 32 and rc.tx_cols == 4
    assert rc.rx_rows == 2 and rc.rx_cols == 2
    assert rc.comm.k_factor == 3.0
    assert rc.tracker.n_particles == 1000


def test_load_none_gives_defaults():
    assert load_run_config(None) == parse_run_config("")


def test_overrides_applied():
    rc = parse_run_config(
        """
[run]
seed = 42
duration = 5.0

[scene]
n_clusters = 2
sigma_angle_deg = 2.0
user_velocity = 0, -1, 0

[arrays]
tx_rows = 8

[channel]
k_factor = 10.0

[tracker]
n_particles = 200
ts = 0.05
"""
    )
    assert rc.scene.seed == 42
    assert rc.scene.duration == 5.0
    assert rc.scene.n_clusters == 2
    assert rc.scene.sigma_angle == pytest.approx(math.radians(2.0))
    assert rc.scene.user_velocity == Vec3(0.0, -1.0, 0.0)
    assert rc.tx_rows == 8
    assert rc.comm.k_factor == 10.0
    assert rc.tracker.n_particles == 200
    assert rc.tracker.ts == 0.05


def test_unknown_section_rejected_with_line():
    with pytest.raises(ConfigError, match=r"\[plotting\].*line 2"):
        parse_run_config("\n[plotting]\nstyle = dark\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="n_cluster"):
        parse_run_config("[scene]\nn_cluster = 3\n")
    with pytest.raises(ConfigError, match="'xpr_db' in \\[channel\\] at line 2"):
        parse_run_config("[channel]\nxpr_db = 8.0\n")
    # the line is looked up within the key's own section
    with pytest.raises(ConfigError, match="'seed' in \\[tracker\\] at line 5"):
        parse_run_config("[run]\nseed = 1\n\n[tracker]\nseed = 2\n")
    with pytest.raises(ConfigError, match="'duration' in \\[scene\\] at line 4"):
        parse_run_config("[run]\nduration = 5\n[scene]\nduration = 3\n")


def test_bad_value_rejected_with_line():
    with pytest.raises(ConfigError, match="seed"):
        parse_run_config("[run]\nseed = banana\n")
    # configparser reads keys in any case
    with pytest.raises(ConfigError, match="'seed' in \\[run\\] at line 2"):
        parse_run_config("[run]\nSeed = x\n")


def test_invalid_combination_rejected():
    with pytest.raises(ConfigError):
        parse_run_config("[scene]\nspeed_min = 5.0\nspeed_max = 1.0\n").validate()
    with pytest.raises(ConfigError, match="carrier frequency must be positive"):
        parse_run_config("[channel]\ncarrier_hz = 0\n")


def test_n_frames():
    rc = parse_run_config("[run]\nduration = 2.0\n\n[tracker]\nts = 0.5\n")
    assert rc.n_frames == 5  # t = 0, 0.5, 1.0, 1.5, 2.0


def test_n_frames_stays_within_the_duration():
    assert parse_run_config("[run]\nduration = 0.3\n").n_frames == 4  # 0.3 / 0.1 = 2.9999999999999996
    assert parse_run_config("[run]\nduration = 0.36\n").n_frames == 4  # no frame past the end


@pytest.mark.parametrize("text", ["[channel]\nk_factor = nan\n", "[arrays]\nspacing_wavelengths = inf\n",
                                  "[scene]\nsigma_angle_deg = -inf\n", "[tracker]\nts = inf\n"])
def test_non_finite_values_rejected(text):
    with pytest.raises(ValueError, match="must be finite"):
        parse_run_config(text)


def test_arrays_built_from_config():
    rc = parse_run_config("")
    tx = rc.tx_array()
    assert tx.num_elements == 32 * 4
    assert tx.origin == rc.scene.bs_position
    assert tx.spacing == pytest.approx(rc.scene.wavelength / 2.0)
    rx = rc.rx_template()
    assert rx.num_elements == 4

    # rows along z and columns along y, spacing_wavelengths wavelengths apart
    rc = parse_run_config("[arrays]\ntx_rows = 3\ntx_cols = 5\nrx_rows = 2\nrx_cols = 3\nspacing_wavelengths = 0.7\n")
    z, y = Vec3(0.0, 0.0, 1.0), Vec3(0.0, 1.0, 0.0)
    for built, (rows, cols, origin) in (
        (rc.tx_array(), (3, 5, rc.scene.bs_position)),
        (rc.rx_template(), (2, 3, ORIGIN)),
    ):
        want = PlanarArray(rows, cols, 0.7 * rc.scene.wavelength, origin, z, y)
        assert np.array_equal(built.element_positions(), want.element_positions())


def test_resolved_text_round_trips():
    given = {"[run]\nseed = 99\n\n[tracker]\nn_particles = 123\n": None}
    # math.degrees of these values' radians is one ulp away from the value,
    # whose radians are the stored ones
    for deg in ("0.84", "4.5525"):
        given[f"[scene]\nsigma_angle_deg = {deg}\n"] = f"sigma_angle_deg = {deg}\n"
        given[f"[tracker]\nmeas_angle_deg = {deg}\n"] = f"meas_angle_deg = {deg}\n"
    for ini, line in given.items():
        rc = parse_run_config(ini)
        text = resolved_config_text(rc)
        again = parse_run_config(text)
        assert again == rc
        assert resolved_config_text(again) == text
        assert line is None or line in text


def test_resolved_text_shows_every_section():
    text = resolved_config_text(parse_run_config(""))
    for section in ("[run]", "[scene]", "[arrays]", "[channel]", "[tracker]"):
        assert section in text


def test_load_from_file(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[run]\nseed = 5\n")
    assert load_run_config(str(p)).scene.seed == 5
    with pytest.raises(OSError):
        load_run_config(str(tmp_path / "missing.ini"))


def test_runconfig_is_immutable_dataclass():
    rc = parse_run_config("")
    assert isinstance(rc, RunConfig)
    with pytest.raises(AttributeError):
        rc.tx_rows = 1


# --- every drawn INI runs or fails with one error line -------------------------

# good values that keep a simulate run small: at most 0.5 s of 0.05 s frames
_GOOD_RANGES = {
    "seed": (0, 1000), "n_clusters": (1, 3), "fb_per_cluster": (1, 3), "lb_per_cluster": (0, 3),
    "tx_rows": (1, 4), "tx_cols": (1, 4), "rx_rows": (1, 3), "rx_cols": (1, 3), "n_particles": (1, 50),
    "duration": (0.05, 0.5), "ts": (0.05, 0.25), "speed_min": (0.0, 1.0), "birth_death_rate": (0.0, 0.5),
    "virtual_delay_max": (0.0, 1e-7),
}
_BAD_TEXT = ["", "abc", "1 2", "0x10", "1e400", "-1e400", "nan", "inf", "-inf", "None"]


def _good(key, default):
    if isinstance(default, Vec3):
        offset = st.floats(-10.0, 10.0, allow_nan=False)
        return st.tuples(offset, offset, offset).map(
            lambda d: ", ".join(repr(c + o) for c, o in zip(default.as_tuple(), d)))
    lo, hi = _GOOD_RANGES.get(key, (0.5 * default, 2.0 * default))
    if isinstance(default, int):
        return st.integers(lo, hi).map(str)
    return st.floats(lo, hi, allow_nan=False).map(repr)


def _value(key, default):
    """A good value, a bad string, or a negative, nan or inf in the key's format."""
    good = _good(key, default)
    if isinstance(default, Vec3):
        bad = st.sampled_from(["1, 2", "1 2 3 4", "nan 0 0", "0 inf 0", "a b c"] + _BAD_TEXT)
    else:
        bad = st.sampled_from(_BAD_TEXT)
    negative = good.map(lambda v: "-" + v if not v.startswith("-") else v[1:])
    return st.one_of(good, good, bad, negative)


def _config_texts():
    keys = [(section, key, config._file_value(RunConfig(), holder, key)) for section, holder, key in config._KEYS]
    duration = [k for k in keys if k[1] == "duration"]

    @st.composite
    def draw(draw_from):
        # the duration is always set, so no run takes the 20 s default
        chosen = duration + draw_from(st.lists(st.sampled_from(keys), max_size=4, unique=True))
        sections: dict[str, list[str]] = {}
        for section, key, default in chosen:
            sections.setdefault(section, []).append(f"{key} = {draw_from(_value(key, default))}")
        return "".join(f"[{s}]\n" + "".join(line + "\n" for line in lines) for s, lines in sections.items())

    return draw()


@settings(max_examples=40, deadline=None)
@given(_config_texts())
def test_any_drawn_config_runs_or_prints_one_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["simulate", "--config", path, "--out", os.path.join(tmp, "run")])
    lines = err.getvalue().splitlines()
    if code != 0:
        assert code == 2 and len(lines) == 1 and lines[0].startswith("error: "), (code, lines)
