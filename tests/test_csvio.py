import numpy as np
import pytest

from isacsim import csvio
from isacsim.antenna import half_wavelength_array
from isacsim.comm import CommParams, draw_polarization_set, frame_taps
from isacsim.geometry import ORIGIN
from isacsim.scene import LOS_PATH_ID, SceneConfig, generate_scene, observe
from isacsim.sensing import monostatic_cir


@pytest.fixture(scope="module")
def scene():
    return generate_scene(SceneConfig(n_clusters=2, fb_per_cluster=1, lb_per_cluster=1))


@pytest.fixture(scope="module")
def frames(scene):
    rng = np.random.default_rng(1)
    return [observe(scene, k * 0.1, (5e-9, 0.01), rng) for k in range(4)]


def test_observation_round_trip(tmp_path, frames):
    cp = tmp_path / "obs.csv"
    sp = tmp_path / "sens.csv"
    csvio.write_comm_observations(str(cp), frames)
    csvio.write_sensing_observations(str(sp), frames)
    back = csvio.read_observation_frames(str(cp), str(sp))
    assert len(back) == len(frames)
    for orig, loaded in zip(frames, back):
        assert loaded.time == orig.time
        assert loaded.comm_paths == orig.comm_paths  # repr floats: exact
        assert loaded.sensing_detections == orig.sensing_detections
        assert loaded.los == orig.los


def test_schema_line_enforced(tmp_path, frames):
    cp = tmp_path / "obs.csv"
    sp = tmp_path / "sens.csv"
    csvio.write_comm_observations(str(cp), frames)
    csvio.write_sensing_observations(str(sp), frames)
    text = cp.read_text()
    cp.write_text(text.replace("comm_observations", "something_else", 1))
    with pytest.raises(csvio.CsvFormatError, match="schema"):
        csvio.read_observation_frames(str(cp), str(sp))


def test_field_count_error_reports_line(tmp_path, frames):
    cp = tmp_path / "obs.csv"
    sp = tmp_path / "sens.csv"
    csvio.write_comm_observations(str(cp), frames)
    csvio.write_sensing_observations(str(sp), frames)
    lines = cp.read_text().splitlines()
    lines[3] = lines[3] + ",extra"
    cp.write_text("\n".join(lines) + "\n")
    with pytest.raises(csvio.CsvFormatError, match=":4"):
        csvio.read_observation_frames(str(cp), str(sp))


def test_header_mismatch(tmp_path, frames):
    cp = tmp_path / "obs.csv"
    sp = tmp_path / "sens.csv"
    csvio.write_comm_observations(str(cp), frames)
    csvio.write_sensing_observations(str(sp), frames)
    lines = cp.read_text().splitlines()
    lines[1] = lines[1].replace("delay_s", "delay")
    cp.write_text("\n".join(lines) + "\n")
    with pytest.raises(csvio.CsvFormatError, match="header"):
        csvio.read_observation_frames(str(cp), str(sp))


def test_sensing_taps_round_trip(tmp_path, scene):
    data = [(t, monostatic_cir(scene, t)) for t in (0.0, 0.1)]
    path = tmp_path / "staps.csv"
    csvio.write_sensing_taps(str(path), data)
    rows = csvio.read_sensing_taps(str(path))
    assert len(rows) == sum(len(taps) for _, taps in data)
    assert rows[0]["delay_s"] == data[0][1][0].round_trip_delay


def test_comm_taps_round_trip(tmp_path, scene):
    tx = half_wavelength_array(2, 2, scene.config.wavelength, scene.bs_position)
    rx = half_wavelength_array(1, 2, scene.config.wavelength, ORIGIN)
    draws = draw_polarization_set(scene, CommParams(), np.random.default_rng(2))
    block = frame_taps(scene, 0.0, tx, rx, CommParams(), draws, np.array([0, 1]), np.array([0, 1]))
    path = tmp_path / "ctaps.csv"
    csvio.write_comm_taps(str(path), [(0.0, block)])
    back = csvio.read_comm_taps(str(path))
    n = block.delay.shape[-1]
    assert len(back["t"]) == block.delay.size
    assert np.all(back["t"] == 0.0)
    assert np.array_equal(back["q"], np.repeat(block.q, n))
    assert np.array_equal(back["p"], np.repeat(block.p, n))
    assert back["kind"].tolist() == ["los" if i == LOS_PATH_ID else "nlos" for i in block.path_id.ravel()]
    # exact round trip including the complex amplitude
    for key, column in (("path_id", block.path_id), ("delay_s", block.delay), ("re", block.re), ("im", block.im)):
        assert np.array_equal(back[key], column.ravel())


def test_spreads_round_trip(tmp_path):
    rows = [(0, 0.0, (1e-9, 0.1, 0.2, 0.3, 0.4)), (1, 0.1, (2e-9, 0.5, 0.6, 0.7, 0.8))]
    path = tmp_path / "spreads.csv"
    csvio.write_spreads(str(path), rows)
    back = csvio.read_spreads(str(path))
    assert len(back) == 2
    assert back[0]["delay_spread_s"] == 1e-9
    assert back[1]["aoa_el_spread_rad"] == 0.8


def test_cdf_and_ks_round_trip(tmp_path):
    cdfp = tmp_path / "cdf.csv"
    csvio.write_cdf(str(cdfp), [1.0, 2.0], [0.5, 1.0])
    assert csvio.read_cdf(str(cdfp)) == [(1.0, 0.5), (2.0, 1.0)]
    ksp = tmp_path / "ks.csv"
    csvio.write_ks(str(ksp), [("delay_spread_s", 0.05)])
    assert csvio.read_ks(str(ksp)) == {"delay_spread_s": 0.05}


def test_rmse_round_trip(tmp_path):
    path = tmp_path / "rmse.csv"
    csvio.write_rmse(str(path), [["fb", "18", "1.5", "1.4"], ["lb", "18", "2.0", "1.8"]])
    back = csvio.read_rmse(str(path))
    assert back["fb"]["final_rmse_m"] == 1.5
    assert back["lb"]["n_clouds"] == 18.0


def test_missing_file_oserror(tmp_path):
    with pytest.raises(OSError):
        csvio.read_spreads(str(tmp_path / "nope.csv"))
