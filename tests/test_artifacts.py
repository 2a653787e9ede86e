"""Artifact bytes against a per-sample reference writer."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qbattery.cli import _CHUNK_ROWS, OUTPUT_COLUMNS, _row_chunks, trajectory_rows, write_trajectory
from qbattery.dynamics import Trajectory, integrate, propagate
from qbattery.errors import UnphysicalState
from qbattery.model import DriveProfile, ModelParams

ECHO = {"note": "echo"}
N_MOMENT_COLUMNS = 18  # t, g_tau and the 16 moment parts; energetics follow


def reference_rows(traj):
    """Rows built one MomentState at a time with the scalar Gaussian closed form."""
    omega0, rows = traj.params.omega0, []
    for i, t in enumerate(traj.times.tolist()):
        s = traj.state_at(i)
        m = (1.0 + 2.0 * s.nb - 2.0 * abs(s.b_mean) ** 2) ** 2 - 4.0 * abs(s.b_sq - s.b_mean**2) ** 2
        erg = max(omega0 * s.nb - omega0 * (math.sqrt(m) - 1.0) / 2.0, 0.0)
        moments = [s.a_mean, s.b_mean, s.na, s.nb, s.ab_dag, s.a_sq, s.b_sq, s.ab]
        parts = [p for z in moments for p in (z.real, z.imag)]
        parts[5] = parts[7] = 0.0  # na_im, nb_im
        e_a = omega0 * abs(s.a_mean) ** 2
        rows.append([t, traj.params.g * t, *parts, omega0 * s.nb / omega0, erg / omega0, e_a / omega0, m])
    return rows


def reference_csv(rows):
    """The per-value writer: format(v, ".16e") of each value, ',' between, LF after each row."""
    return "".join(",".join(format(v, ".16e") for v in r) + "\n" for r in rows)


def reference_json_rows(rows):
    """The rows member of a JSON data file: format(v, ".16e") of each value, each row in brackets."""
    return "[" + ",".join("[" + ",".join(format(v, ".16e") for v in r) + "]" for r in rows) + "]"


def old_json_writer(rows, echo):
    """The JSON data writer before rows were streamed: json.dumps of the row list, float repr per value."""
    doc = {"schema": "qbattery-data-v1", "config": echo, "columns": list(OUTPUT_COLUMNS), "rows": rows.tolist()}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _csv_body(rows):
    """The data lines the writer streams, joined."""
    return b"".join(_row_chunks(rows, "csv"))


def _json_body(rows):
    """The JSON rows array the writer streams, joined: its opening brackets come with the file's head."""
    return ("[[" + b"".join(_row_chunks(rows, "json")).decode()) if len(rows) else "[]"


def assert_file_holds_rows(path, traj, fmt):
    """The CSV file is header plus per-value text; the JSON rows are that text and parse to the rows' bits."""
    text, rows = path.read_text(), trajectory_rows(traj)
    if fmt == "csv":
        assert text == ",".join(OUTPUT_COLUMNS) + "\n" + reference_csv(rows.tolist())
    else:
        assert '"rows":' + reference_json_rows(rows.tolist()) + ',"schema":' in text
        got = np.array(json.loads(text)["rows"]).reshape(-1, len(OUTPUT_COLUMNS))
        assert np.array_equal(got.view(np.uint64), rows.view(np.uint64))  # the sign of zero included


def reference_text(traj, fmt):
    rows = reference_rows(traj)
    if fmt == "csv":
        return ",".join(OUTPUT_COLUMNS) + "\n" + reference_csv(rows)
    doc = {
        "schema": "qbattery-data-v1",
        "config": ECHO,
        "columns": list(OUTPUT_COLUMNS),
        "rows": [[float(format(v, ".16e")) for v in r] for r in rows],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


DRIVES = {
    "off": DriveProfile.off(),
    "static": DriveProfile.static(0.2),
    "sin_sq": DriveProfile.sin_sq(0.3, 0.5),
    "cd": DriveProfile.cd_sin_sq(0.2, 0.5),
}


@pytest.mark.parametrize("nbar", [0.0, 0.3])
@pytest.mark.parametrize("drive", sorted(DRIVES))
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_matches_per_sample_reference(tmp_path, fmt, drive, nbar):
    params = ModelParams(omega0=1.0, g=0.2, gamma=1.0, nbar=nbar, delta_r=0.5, tau=3.0)
    traj = integrate(params, DRIVES[drive], 0.01, 5.0, sample_stride=1)
    path = tmp_path / f"run.{fmt}"
    assert write_trajectory(path, traj, fmt, ECHO) == len(traj)
    got, want = path.read_text(), reference_text(traj, fmt)
    if fmt == "csv":
        got_lines, want_lines = got.split("\n"), want.split("\n")
        assert got_lines[0] == want_lines[0] and got_lines[-1] == want_lines[-1] == ""
        got_cells = [line.split(",") for line in got_lines[1:-1]]
        want_cells = [line.split(",") for line in want_lines[1:-1]]
    else:
        got_doc, want_doc = json.loads(got), json.loads(want)
        got_cells, want_cells = got_doc.pop("rows"), want_doc.pop("rows")
        assert got_doc == want_doc
    assert len(got_cells) == len(want_cells) == len(traj)
    # time and moment columns: the same text or the same doubles, sign of zero included
    assert [r[:N_MOMENT_COLUMNS] for r in got_cells] == [r[:N_MOMENT_COLUMNS] for r in want_cells]
    got_vals, want_vals = np.array(got_cells, dtype=float), np.array(want_cells, dtype=float)
    assert np.array_equal(np.signbit(got_vals), np.signbit(want_vals))
    assert np.max(np.abs(got_vals[:, N_MOMENT_COLUMNS:] - want_vals[:, N_MOMENT_COLUMNS:])) <= 1e-12


def test_row_format_matches_per_value_format():
    edge = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.0 / 3.0]
    bits = np.random.default_rng(5).integers(0, 2**64, size=(200, len(OUTPUT_COLUMNS)), dtype=np.uint64)
    doubles = bits.view(np.float64)
    doubles = doubles[np.isfinite(doubles).all(axis=1)]
    rows = [edge + edge + edge[:6]] + doubles.tolist()
    assert _csv_body(np.array(rows)).decode() == reference_csv(rows)
    assert _json_body(np.array(rows)) == reference_json_rows(rows)
    for row in rows:
        assert [float(format(v, ".16e")) for v in row] == row


@pytest.mark.parametrize("n_rows", [0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1])
def test_row_ends_match_per_value_text(n_rows):
    # Python formats the last column (|x| below 1e-280 or above 1e280) over the first 29 bytes of a
    # 32-byte slot; the row end, up to 3 bytes, fills the slot's top, where a longer write would erase it
    rows = np.random.default_rng(n_rows).normal(size=(n_rows, len(OUTPUT_COLUMNS)))
    rows[:, -1] = np.resize([-5e-310, -1e-300, 1.2345678901234567e300], n_rows)
    cells = [",".join(format(v, ".16e") for v in r) for r in rows.tolist()]
    assert b"".join(_row_chunks(rows, "csv")).decode() == "".join(c + "\n" for c in cells)
    assert b"".join(_row_chunks(rows, "json")).decode() == ("],[".join(cells) + "]]" if n_rows else "")


_FINITE_BITS = st.integers(0, 2**64 - 1).filter(lambda b: (b >> 52) & 0x7FF != 0x7FF)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(arrays(np.uint64, st.tuples(st.integers(1, 8), st.just(len(OUTPUT_COLUMNS))), elements=_FINITE_BITS))
def test_csv_body_matches_per_value_writer_on_raw_bits(bits):
    rows = bits.view(np.float64)
    assert _csv_body(rows).decode() == reference_csv(rows.tolist())
    assert _json_body(rows) == reference_json_rows(rows.tolist())


def as_rows(values):
    """``values`` then their negatives, cycled to fill whole (n, 22) rows."""
    values = np.concatenate([values, -values])
    n_cols = len(OUTPUT_COLUMNS)
    return np.resize(values, (-(-len(values) // n_cols), n_cols))


def test_csv_body_matches_per_value_writer_on_edges():
    tiny, normal, huge = 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    neighbours = [np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
    # n + 0.25 and n + 0.75 are exact doubles here, and exact ties at 17 digits
    n = np.linspace(1e15, 2.0**51 - 1.0, 997).round()
    ties = [n + 0.25, n + 0.75]  # n runs from 1e15 to 2^51 - 1, both ends included
    # 0000 and 9999 in every 4-digit group over the kernel's fast range; 9.99...9 rounds up to 10^17 (lead 10)
    mantissas = ("1.0000000000000000", "9.9999999999999999", "1.0000999900009999", "9.9990000999900009")
    groups = [float(f"{m}e{k}") for m in mantissas for k in range(-280, 281)]
    values = np.concatenate([[0.0, tiny, normal, huge, 1e-6], powers, *neighbours, *ties, groups])
    rows = as_rows(values)
    assert np.signbit(rows[rows == 0.0]).any()  # -0.0 is in the set
    assert _csv_body(rows).decode() == reference_csv(rows.tolist())
    assert _json_body(rows) == reference_json_rows(rows.tolist())


def long_and_empty_trajectories():
    params = ModelParams(omega0=1.0, g=0.2, gamma=0.05, nbar=0.0, delta_r=0.0, tau=20.0)
    traj = propagate(params, DriveProfile.cd_sin_sq(0.2, 0.5), 0.01, 20.0, sample_stride=1)
    empty = Trajectory(times=traj.times[:0], mu=traj.mu[:, :0], sigma=traj.sigma[:, :0], params=params)
    return traj, empty


def test_multi_chunk_and_empty_trajectories(tmp_path):
    traj, empty = long_and_empty_trajectories()
    for fmt in ("csv", "json"):
        for name, t, n_rows in (("long", traj, 2001), ("empty", empty, 0)):
            path = tmp_path / f"{name}.{fmt}"
            assert write_trajectory(path, t, fmt, ECHO) == len(t) == n_rows
            assert_file_holds_rows(path, t, fmt)  # an empty JSON file reads "rows":[]


@pytest.mark.parametrize("n_rows", [1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1])
def test_streamed_file_at_chunk_boundaries(tmp_path, n_rows):
    params = ModelParams(omega0=1.0, g=0.2, gamma=1.0, nbar=0.3, delta_r=0.5, tau=3.0)
    traj = propagate(params, DriveProfile.cd_sin_sq(0.2, 0.5), 0.01, 0.01 * (n_rows - 1), sample_stride=1)
    for fmt in ("csv", "json"):
        path = tmp_path / f"run.{fmt}"
        assert write_trajectory(path, traj, fmt, ECHO) == len(traj) == n_rows
        assert_file_holds_rows(path, traj, fmt)


def test_json_file_against_the_old_writer(tmp_path):
    # only the float text changes: the other members keep json.dumps's bytes, escapes included
    echo = {"output": {"format": "json", "path": 'runs/charge "é".json'}, "numerics": {"step": 0.01}}
    path = tmp_path / "run.json"
    for traj in long_and_empty_trajectories():
        write_trajectory(path, traj, "json", echo)
        new, old = path.read_text(encoding="utf-8"), old_json_writer(trajectory_rows(traj), echo)
        new_doc, old_doc = json.loads(new), json.loads(old)
        assert list(new_doc) == sorted(new_doc) == ["columns", "config", "rows", "schema"]
        assert new.partition('"rows":')[0] == old.partition('"rows":')[0]
        assert new.rpartition(',"schema":')[2] == old.rpartition(',"schema":')[2]
        new_rows = np.array(new_doc.pop("rows")).reshape(-1, len(OUTPUT_COLUMNS))
        old_rows = np.array(old_doc.pop("rows")).reshape(-1, len(OUTPUT_COLUMNS))
        assert new_doc == old_doc
        assert np.array_equal(new_rows.view(np.uint64), old_rows.view(np.uint64))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_unphysical_rows_leave_no_file(tmp_path, fmt):
    params = ModelParams(omega0=1.0, g=0.2, gamma=1.0, nbar=0.0, delta_r=0.5, tau=3.0)
    traj = propagate(params, DriveProfile.static(0.2), 0.01, 1.0, sample_stride=1)
    sigma = traj.sigma.copy()
    sigma[7, 50] = -0.5  # Sigma22 below -1/4: M < 1 at sample 50
    bad = Trajectory(times=traj.times, mu=traj.mu, sigma=sigma, params=params)
    path = tmp_path / f"run.{fmt}"
    with pytest.raises(UnphysicalState, match="battery covariance breaks the uncertainty principle"):
        write_trajectory(path, bad, fmt, ECHO)
    assert not path.exists()
