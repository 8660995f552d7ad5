import math

import pytest

from isacsim.config import (
    RunConfig,
    load_run_config,
    parse_run_config,
    resolved_config_text,
)
from isacsim.geometry import Vec3
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


def test_bad_value_rejected_with_line():
    with pytest.raises(ConfigError, match="seed"):
        parse_run_config("[run]\nseed = banana\n")


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


def test_resolved_text_round_trips():
    rc = parse_run_config("[run]\nseed = 99\n\n[tracker]\nn_particles = 123\n")
    text = resolved_config_text(rc)
    again = parse_run_config(text)
    assert again == rc
    assert resolved_config_text(again) == text


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
