import csv
import dataclasses
import io

import numpy as np
import pytest

from isacsim import csvio
from isacsim.antenna import PlanarArray
from isacsim.comm import CommParams, draw_polarization_set, frame_taps
from isacsim.geometry import ORIGIN, Vec3
from isacsim.scene import LOS_PATH_ID, SceneConfig, echoes, generate_scene, ground_truth_paths, observe
from isacsim.sensing import monostatic_cir


@pytest.fixture(scope="module")
def scene():
    return generate_scene(SceneConfig(n_clusters=2, fb_per_cluster=1, lb_per_cluster=1))


@pytest.fixture(scope="module")
def frames(scene):
    rng = np.random.default_rng(1)
    times = [k * 0.1 for k in range(4)]
    truths = zip(times, ground_truth_paths(scene, times), echoes(scene, times))
    return [observe(scene, t, (5e-9, 0.01), rng, *truth) for t, *truth in truths]


def test_observation_round_trip(tmp_path, frames):
    cp = tmp_path / "obs.csv"
    sp = tmp_path / "sens.csv"
    csvio.write_comm_observations(str(cp), frames)
    csvio.write_sensing_observations(str(sp), frames)
    back = csvio.read_observation_frames(str(cp), str(sp))
    assert len(back) == len(frames)
    for orig, loaded in zip(frames, back):
        assert loaded.time == orig.time
        assert same_columns(loaded.comm_paths, orig.comm_paths)  # repr floats: exact
        assert same_columns(loaded.sensing_detections, orig.sensing_detections)
        assert same_columns(loaded.los, orig.los)


def same_columns(a, b):
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))


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
    data = [(t, monostatic_cir(e)) for t, e in zip((0.0, 0.1), echoes(scene, (0.0, 0.1)))]
    path = tmp_path / "staps.csv"
    csvio.write_sensing_taps(str(path), data)
    rows = csvio.read_columns(str(path), "sensing_taps", csvio.SENSING_TAPS_HEADER, ("delay_s",))
    assert len(rows["delay_s"]) == sum(len(taps) for _, taps in data)
    assert rows["delay_s"][0] == data[0][1].table[0, 0]


def test_comm_taps_round_trip(tmp_path, scene):
    half, z, y = scene.config.wavelength / 2.0, Vec3(0.0, 0.0, 1.0), Vec3(0.0, 1.0, 0.0)
    tx, rx = PlanarArray(2, 2, half, scene.bs_position, z, y), PlanarArray(1, 2, half, ORIGIN, z, y)
    draws = draw_polarization_set(scene, CommParams(), np.random.default_rng(2))
    paths = ground_truth_paths(scene, [0.0])[0]
    block = frame_taps(scene, 0.0, tx, rx, CommParams(), draws, np.array([0, 1]), np.array([0, 1]), paths)
    path = tmp_path / "ctaps.csv"
    csvio.write_comm_taps(str(path), [(0.0, block)])
    back = csvio.read_columns(
        str(path), "comm_taps", csvio.COMM_TAPS_HEADER, ("t", "delay_s", "re", "im"), ("q", "p", "path_id"), ("kind",)
    )
    n = block.delay.shape[-1]
    assert len(back["t"]) == block.delay.size
    assert np.all(back["t"] == 0.0)
    assert np.array_equal(back["q"], np.repeat(block.q, n))
    assert np.array_equal(back["p"], np.repeat(block.p, n))
    assert list(back["kind"]) == ["los" if i == LOS_PATH_ID else "nlos" for i in block.path_id.ravel()]
    # exact round trip including the complex amplitude
    for key, column in (("path_id", block.path_id), ("delay_s", block.delay), ("re", block.re), ("im", block.im)):
        assert np.array_equal(back[key], column.ravel())


def test_spreads_round_trip(tmp_path):
    rows = [(0, 0.0, (1e-9, 0.1, 0.2, 0.3, 0.4)), (1, 0.1, (2e-9, 0.5, 0.6, 0.7, 0.8))]
    path = tmp_path / "spreads.csv"
    csvio.write_spreads(str(path), rows)
    back = csvio.read_spreads(str(path))
    assert len(back["k"]) == 2
    assert back["delay_spread_s"][0] == 1e-9
    assert back["aoa_el_spread_rad"][1] == 0.8


def test_cdf_and_ks_round_trip(tmp_path):
    cdfp = tmp_path / "cdf.csv"
    csvio.write_cdf(str(cdfp), [1.0, 2.0], [0.5, 1.0])
    cdf = csvio.read_columns(str(cdfp), "cdf", csvio.CDF_HEADER, csvio.CDF_HEADER)
    assert list(zip(cdf["value"].tolist(), cdf["fraction"].tolist())) == [(1.0, 0.5), (2.0, 1.0)]
    ksp = tmp_path / "ks.csv"
    csvio.write_ks(str(ksp), [("delay_spread_s", 0.05)])
    ks = csvio.read_columns(str(ksp), "ks", csvio.KS_HEADER, ("ks_distance",), strings=("quantity",))
    assert dict(zip(ks["quantity"], ks["ks_distance"].tolist())) == {"delay_spread_s": 0.05}


def test_rmse_round_trip(tmp_path):
    path = tmp_path / "rmse.csv"
    csvio.write_rmse(str(path), [["fb", "18", "1.5", "1.4"], ["lb", "18", "2.0", "1.8"]])
    back = csvio.read_columns(
        str(path), "track_rmse", csvio.RMSE_HEADER, ("final_rmse_m", "mean_rmse_m"), ("n_clouds",), ("kind",)
    )
    assert back["final_rmse_m"][back["kind"].index("fb")] == 1.5
    assert back["n_clouds"][back["kind"].index("lb")] == 18


def test_missing_file_oserror(tmp_path):
    with pytest.raises(OSError):
        csvio.read_spreads(str(tmp_path / "nope.csv"))


def test_bad_integer_reports_line(tmp_path, frames):
    cp = tmp_path / "obs.csv"
    sp = tmp_path / "sens.csv"
    csvio.write_comm_observations(str(cp), frames)
    csvio.write_sensing_observations(str(sp), frames)
    lines = cp.read_text().splitlines()
    row = lines[4].split(",")
    row[3] = "1.5"  # path_id
    lines[4] = ",".join(row)
    cp.write_text("\n".join(lines) + "\n")
    with pytest.raises(csvio.CsvFormatError, match=r"obs\.csv:5: path_id must be an integer, got '1\.5'$"):
        csvio.read_observation_frames(str(cp), str(sp))


def csv_writer_bytes(name, header, rows):
    buf = io.StringIO(newline="")
    buf.write(csvio._schema_line(name) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


HEADERS = [name for name in vars(csvio) if name.endswith("_HEADER")]


@pytest.mark.parametrize("header", HEADERS)
def test_written_header_bytes_equal_csv_writer(tmp_path, header):
    path = tmp_path / "out.csv"
    csvio._write(str(path), "some_schema", getattr(csvio, header), [])
    assert path.read_bytes() == csv_writer_bytes("some_schema", getattr(csvio, header), [])


def test_written_rows_with_empty_fields_equal_csv_writer(tmp_path):
    est = [repr(x) for x in (1.5, -2.25, 0.1, 1e-17, -0.0, 3.0)]
    trajectory = [
        ["4", "0.4", "fb", "3", "12", *est, *[""] * 7, "1", "0"],  # the entity is not alive: no truth
        ["4", "0.4", "user", "0", "0", *est, *est, "0.5", "0", "0"],
    ]
    summary = [
        ["lb", "2", "7", "0", "0", "", "1.25", "990.5", "999.0"],
        ["failed", "5", *[""] * 7],
    ]
    for name, header, rows in (
        ("trajectory", csvio.TRAJECTORY_HEADER, trajectory), ("track_summary", csvio.SUMMARY_HEADER, summary),
    ):
        path = tmp_path / f"{name}.csv"
        csvio._write(str(path), name, header, rows)
        assert path.read_bytes() == csv_writer_bytes(name, header, rows)
