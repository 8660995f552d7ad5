import csv
import dataclasses
import io
import math
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isacsim import csvio
from isacsim.antenna import PlanarArray
from isacsim.comm import CommParams, draw_polarization_set, run_taps
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
    return observe(scene, times, (5e-9, 0.01), rng, ground_truth_paths(scene, times), echoes(scene, times)).frames


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
    block = next(run_taps(scene, [0.0], tx, rx, CommParams(), draws, np.array([0, 1]), np.array([0, 1]), [paths]))[1]
    path = tmp_path / "ctaps.csv"
    csvio.write_comm_taps(str(path), [[(0.0, block)]])
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
    est = [1.5, -2.25, 0.1, 1e-17, -0.0, 3.0]
    # the fifth step's batch: cloud 1, whose entity is not alive, so it has no truth, then cloud 0
    score = SimpleNamespace(
        times=[0.0, 0.1, 0.2, 0.3, 0.4], members=[np.array([], dtype=int)] * 4 + [np.array([1, 0])],
        clouds=[("user", 0, 0), ("fb", 3, 12)], truth_vel=np.array([est[3:], est[:3]]),
        estimates=np.tile(est, (5, 2, 1)), truth_pos=np.tile(est[:3], (5, 2, 1)), errors=np.full((5, 2), 0.5),
        alive=np.tile([True, False], (5, 1)), coasted=np.tile([0, 1], (5, 1)), diverged=np.zeros((5, 2), dtype=int),
    )
    trajectory = [
        ["4", "0.4", "fb", "3", "12", *map(repr, est), *[""] * 7, "1", "0"],
        ["4", "0.4", "user", "0", "0", *map(repr, est), *map(repr, est), "0.5", "0", "0"],
    ]
    summary = [
        ["lb", "2", "7", "0", "0", "", "1.25", "990.5", "999.0"],
        ["failed", "5", *[""] * 7],
    ]
    path = tmp_path / "trajectory.csv"
    csvio.write_trajectory(str(path), score)
    assert path.read_bytes() == csv_writer_bytes("trajectory", csvio.TRAJECTORY_HEADER, trajectory)
    path = tmp_path / "track_summary.csv"
    csvio.write_summary(str(path), summary)
    assert path.read_bytes() == csv_writer_bytes("track_summary", csvio.SUMMARY_HEADER, summary)


# --- the C reader against the exact parser -------------------------------------

PROBE_HEADER = ("k", "t", "kind", "x", "note")
PROBE = ("probe", PROBE_HEADER, ("t", "x"), ("k",), ("kind",))  # note is not read


def outcome(path):
    """What ``read_columns`` gives for the probe schema: its columns, or its error message."""
    try:
        return csvio.read_columns(path, *PROBE)
    except csvio.CsvFormatError as exc:
        return str(exc)


def exact_outcome(path):
    """``outcome`` with the C reader failing, so the exact parser reads every row."""
    with mock.patch.object(np, "loadtxt", side_effect=ValueError("no C reader")):
        return outcome(path)


def same(a, b):
    """Equal messages, or equal columns: arrays of one dtype and the same bits, and equal string tuples."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a.keys() == b.keys() and all(
        type(a[key]) is type(b[key]) and (
            a[key] == b[key] if isinstance(a[key], tuple)
            else a[key].dtype == b[key].dtype and a[key].tobytes() == b[key].tobytes()
        ) for key in a
    )


def spaced(field):
    return st.tuples(st.sampled_from(["", " ", "\t"]), field, st.sampled_from(["", " ", "\t"])).map("".join)


def quoted(field):
    return st.one_of(field, field.map(lambda f: '"' + f.replace('"', '""') + '"'))


INTS = spaced(st.integers(-(2**63), 2**63 - 1).flatmap(lambda k: st.sampled_from([str(k), f"{k:+d}", f"{k:05d}"])))
FLOATS = spaced(st.floats(allow_nan=False, allow_infinity=False).flatmap(
    lambda v: st.sampled_from([repr(v), f"{v:.3e}", f"{v:.4f}", f"{v:G}"])).filter(lambda f: math.isfinite(float(f))))
# no quote, comma, line break or ASCII separator unquoted; quoted, anything but a separator
WORDS = st.one_of(
    st.text(st.characters(blacklist_characters='",\r\n\x1c\x1d\x1e\x1f', blacklist_categories=("Cs",)), max_size=6),
    st.text(st.characters(blacklist_characters="\x1c\x1d\x1e\x1f", blacklist_categories=("Cs",)), max_size=6).map(
        lambda w: '"' + w.replace('"', '""') + '"'),
)
ROWS = st.lists(st.one_of(st.tuples(quoted(INTS), quoted(FLOATS), WORDS, quoted(FLOATS), WORDS).map(",".join),
                          st.just("")), max_size=12)  # "" is a blank line

# one malformed field, as (column, text): non-finite floats, what int() or float() rejects or reads
# differently from the C reader, and numbers that an ASCII separator pads
BAD_FIELDS = st.one_of(
    st.tuples(st.sampled_from([1, 3]), st.sampled_from(
        ["nan", "inf", "-inf", "1e400", "-1e999", " NaN ", "infinity", "1_0", "1.5_0", "١.٥", "0x10", "", "abc",
         "\x1c1.5", "2.5\x1f", "1.5\x00"])),
    st.tuples(st.just(0), st.sampled_from(
        ["1.0", "1_0", "1e3", "99999999999999999999", "-9223372036854775809", "9223372036854775808", "١٢", "",
         "0x10", "\x1d7", "7\x1e", " +7 ", "7."])),
)


@pytest.fixture(scope="module")
def probe_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("probe") / "probe.csv")


def write_probe(path, lines):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csvio._schema_line("probe") + "\n" + ",".join(PROBE_HEADER) + "\n" + "".join(f"{line}\n" for line in lines))


@given(ROWS)
@settings(max_examples=150, deadline=None)
def test_c_reader_gives_the_exact_parsers_columns(probe_path, lines):
    write_probe(probe_path, lines)
    with mock.patch.object(csvio, "_column", side_effect=AssertionError("the exact parser ran")):
        fast = outcome(probe_path)
    assert same(fast, exact_outcome(probe_path))


@given(ROWS.filter(lambda lines: any(lines)), st.data())
@settings(max_examples=300, deadline=None)
def test_malformed_rows_give_the_exact_parsers_message(probe_path, lines, data):
    i = data.draw(st.sampled_from([i for i, line in enumerate(lines) if line]))
    row = next(csv.reader([lines[i]]))
    defect = data.draw(st.sampled_from(["field count", "field", "blank line of spaces", "open quote"]))
    if defect == "field count":
        lines[i] = ",".join(data.draw(st.sampled_from([row[:-1], row + ["1"], row[:1]])))
    elif defect == "field":
        column, text = data.draw(BAD_FIELDS)
        row[column] = text
        lines[i] = ",".join(f'"{f}"' if '"' in f or "," in f else f for f in row)
    elif defect == "blank line of spaces":
        lines.insert(i, data.draw(st.sampled_from([" ", "\t", "  "])))
    else:
        lines[i] = '"' + lines[i]
    write_probe(probe_path, lines)
    assert same(outcome(probe_path), exact_outcome(probe_path))


def test_file_with_only_a_header_gives_empty_columns_and_no_warning(probe_path):
    for lines in ([], [""], ["", ""]):
        write_probe(probe_path, lines)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(probe_path)
        assert same(got, exact_outcome(probe_path))
        assert [len(v) for v in got.values()] == [0, 0, 0, 0]
        assert (got["t"].dtype, got["k"].dtype, got["kind"]) == (np.float64, np.int64, ())


def test_c_reader_columns_own_their_memory(tmp_path, frames):
    cp, sp = str(tmp_path / "obs.csv"), str(tmp_path / "sens.csv")
    csvio.write_comm_observations(cp, frames)
    got = csvio.read_columns(cp, "comm_observations", csvio.OBS_COMM_HEADER, ("t",), ("k",))
    assert all(a.flags.c_contiguous and a.base is None for a in got.values())
