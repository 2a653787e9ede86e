import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qbattery import cli, dynamics, energetics, oracle
from qbattery.cd_control import drive_harmonics
from qbattery.cli import (
    MAX_ROWS,
    OUTPUT_COLUMNS,
    close_check,
    compare_drives,
    load_config,
    main,
    parse_config,
    run_simulate,
    run_sweep,
    selftest_report,
)
from qbattery.dynamics import Trajectory, default_step, propagate, run_size
from qbattery.errors import ConfigError, InvariantViolation, SingularDenominator, TruncationLeak
from qbattery.model import DriveKind, DriveProfile, ModelParams

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def base_config(out_path, **overrides):
    doc = {
        "model": {"omega0": 1.0, "g": 0.2, "gamma": 1.0, "nbar": 0.0, "kappa": 1.0, "tau": 5.0},
        "drive": {"profile": "cd_sin_sq", "f0": 0.2, "omega_env": 0.5},
        "numerics": {"step": 0.01, "t_end": 5.0, "sample_stride": 10},
        "output": {"path": str(out_path), "format": "csv"},
    }
    for key, value in overrides.items():
        doc[key] = value
    return doc


#: (section, key) of the document value each sweep parameter replaces
SWEPT_KEYS = {"kappa": ("model", "kappa"), "F0": ("drive", "f0"), "gamma": ("model", "gamma"), "g": ("model", "g")}


def observe_batches(monkeypatch) -> list:
    """The member count of every propagate_batch call the CLI makes from now on, in call order."""
    sizes, batch = [], cli.propagate_batch

    def observed(runs, *args):
        sizes.append(len(runs))
        return batch(runs, *args)

    monkeypatch.setattr(cli, "propagate_batch", observed)
    return sizes


def write_config(tmp_path, doc, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


STATIC = {"profile": "static", "f0": 0.2}
CD = {"profile": "cd_sin_sq", "f0": 0.2, "omega_env": 0.5}
VALID_NUMERICS = {"step": 0.01, "t_end": 5.0, "sample_stride": 10}

#: (model, drive, numerics, refused) at the library's grid and drive edges. A leg's step count is the ceiling
#: of a double, so near 2^63 it moves in units of 1024: 2^63 - 1024 steps are the most below MAX_STEPS.
AGREEMENT_CASES = {
    "rows_at_edge": ({"g": 0.2}, STATIC, {"step": 0.01, "t_end": 0.01 * (MAX_ROWS - 1), "sample_stride": 1}, False),
    "rows_past_edge": ({"g": 0.2}, STATIC, {"step": 0.01, "t_end": 0.01 * MAX_ROWS, "sample_stride": 1}, True),
    "steps_below_edge": ({"g": 0.2}, STATIC, {"step": 1.0, "t_end": 2.0**63 - 1024, "sample_stride": 10**21}, False),
    "steps_past_edge": ({"g": 0.2}, STATIC, {"step": 1.0, "t_end": 2.0**63, "sample_stride": 10**21}, True),
    # two legs of 6.7e18 steps each: each fits in int64, their total does not
    "two_legs_past_steps": ({"g": 0.2, "tau": 1.0}, STATIC,
                            {"step": 1.5e-19, "t_end": 2.0, "sample_stride": 10**14}, True),
    "cd_zero_denominator": ({"gamma": 0.0, "delta_r": 0.0}, CD, VALID_NUMERICS, True),
    "cd_negative_zero_denominator": ({"gamma": -0.0, "delta_r": -0.0}, CD, VALID_NUMERICS, True),
    "cd_damped": ({"gamma": 0.05, "delta_r": 0.0}, CD, VALID_NUMERICS, False),
}


class TestConfigParsing:
    @pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
    def test_validation_gives_the_library_verdict(self, case):
        # parse_config refuses a point exactly when drive_harmonics or run_size does, in the library's words
        model, drive, numerics, refused = AGREEMENT_CASES[case]
        params = ModelParams.build(**{"tau": numerics["t_end"], **model})
        profile = DriveProfile(DriveKind(drive["profile"]), **{k: v for k, v in drive.items() if k != "profile"})
        verdict = None
        try:
            drive_harmonics(profile, params.delta_r, params.gamma)
            run_size(numerics["step"], numerics["t_end"], params.tau, numerics["sample_stride"])
        except SingularDenominator as exc:
            verdict = str(exc)
        except ValueError as exc:
            verdict = f"numerics.{exc}"
        assert (verdict is not None) == refused, verdict
        doc = {"model": model, "drive": drive, "numerics": numerics}
        if verdict is None:
            parse_config(doc)
        else:
            with pytest.raises(ConfigError) as info:
                parse_config(doc)
            assert str(info.value) == verdict

    def test_missing_file_exits_one(self, capsys):
        assert main(["simulate", "--config", "/nonexistent/xx.json"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_malformed_json_exits_one(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        assert main(["simulate", "--config", str(p)]) == 1

    @pytest.mark.parametrize("command", ["simulate", "sweep", "compare"])
    @pytest.mark.parametrize(
        "text",
        [b'{"model": {"g": 0.2\xff}}', b"[" * 100_000, b'{"model": {"g": ' + b"1" * 5000 + b"}}"],
        ids=["not_utf8", "nested_past_recursion", "integer_past_digit_limit"],
    )
    def test_config_text_that_does_not_decode_fails_validation(self, tmp_path, capsys, command, text):
        # reading and decoding these raise UnicodeDecodeError, RecursionError and a plain ValueError, no JSONDecodeError
        p = tmp_path / "config.json"
        p.write_bytes(text)
        assert main([command, "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config {p} is not valid JSON: ") and err.count("\n") == 1
        assert sorted(f.name for f in tmp_path.iterdir()) == ["config.json"]

    def test_unknown_key_rejected(self, tmp_path):
        doc = base_config(tmp_path / "o.csv")
        doc["model"]["coupling"] = 0.1
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_cd_drive_needs_nonzero_denominator(self, tmp_path):
        doc = base_config(tmp_path / "o.csv")
        doc["model"]["gamma"] = 0.0
        doc["model"]["kappa"] = 1.0  # delta_r = 0
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_unknown_profile_rejected(self, tmp_path):
        doc = base_config(tmp_path / "o.csv")
        doc["drive"]["profile"] = "gaussian"
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_empty_sweep_rejected(self, tmp_path):
        doc = base_config(tmp_path / "o.csv", sweep={"parameter": "kappa", "values": []})
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_bad_sweep_parameter_rejected(self, tmp_path):
        doc = base_config(tmp_path / "o.csv", sweep={"parameter": "flux", "values": [1.0]})
        with pytest.raises(ConfigError):
            parse_config(doc)

    @pytest.mark.parametrize(
        "profile,omega_env,expected",
        [("cd_sin_sq", 0.5, 0.01), ("cd_sin_sq", 5.0, 0.005), ("static", 5.0, 0.01)],
        ids=["0.5-0.01", "5.0-0.005", "static-5.0-0.01"],  # a static drive does not read omega_env
    )
    def test_default_step(self, tmp_path, profile, omega_env, expected):
        doc = base_config(tmp_path / "o.csv")
        del doc["numerics"]["step"]
        doc["drive"]["profile"] = profile
        doc["drive"]["omega_env"] = omega_env
        cfg = parse_config(doc)
        assert cfg.step == default_step(cfg.params, cfg.profile) == expected
        assert cfg.auto_step and "step" not in cfg.to_dict()["numerics"]
        assert parse_config(cfg.to_dict()) == cfg

    def test_default_step_reads_no_omega0(self, tmp_path):
        # fig3's model with no numerics.step: omega0 enters no moment equation, so no step
        doc = base_config(tmp_path / "o.csv")
        doc["model"].update(gamma=0.05, nbar=0.3, tau=20.0)
        doc["numerics"] = {"t_end": 20.0, "sample_stride": 10}
        for w0 in (1.0, 3.0, 1e3, 1e8):
            doc["model"]["omega0"] = w0
            cfg = parse_config(doc)
            assert cfg.step == 0.01
            assert parse_config(cfg.to_dict()) == cfg

    def test_kappa_resolves_detuning(self, tmp_path):
        doc = base_config(tmp_path / "o.csv")
        doc["model"]["kappa"] = 0.5
        cfg = parse_config(doc)
        assert cfg.params.delta_r == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "numerics,message",
        [
            ({"step": 0.01, "t_end": 1e9, "sample_stride": 1},
             "numerics.sample_stride = 1 keeps 100000000001 samples, past 1000000"),
            ({"step": 1e-300, "t_end": 1, "sample_stride": 10**21},
             "numerics.step = 1e-300 takes more than 9223372036854775806 steps to t_end = 1.0"),
        ],
        ids=["rows", "steps"],
    )
    def test_oversized_run_fails_validation(self, tmp_path, capsys, numerics, message):
        # both grids used to fail mid-run on allocation, with a traceback and no config error line
        doc = {
            "model": {"g": 0.2, "gamma": 0.05, "tau": 20.0},
            "drive": {"profile": "static", "f0": 0.2},
            "numerics": numerics,
            "output": {"path": str(tmp_path / "x.csv")},
        }
        p = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(p)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["config.json"]

    def test_run_size_budget_edge(self, tmp_path):
        # the exact engine's cost grows with the log of the step count, so a long run with few rows stays valid
        doc = base_config(tmp_path / "o.csv")
        doc["model"]["tau"] = 20.0
        doc["numerics"] = {"step": 0.01, "t_end": 1e9, "sample_stride": 10**11}
        assert main(["simulate", "--config", str(write_config(tmp_path, doc))]) == 0
        assert len((tmp_path / "o.csv").read_text().splitlines()) == 1 + 2
        doc["numerics"] = {"step": 0.01, "t_end": 0.01 * (MAX_ROWS - 1), "sample_stride": 1}
        parse_config(doc)  # exactly MAX_ROWS samples
        doc["numerics"]["t_end"] = 0.01 * MAX_ROWS
        with pytest.raises(ConfigError, match=f"keeps {MAX_ROWS + 1} samples, past {MAX_ROWS}"):
            parse_config(doc)

    def test_oversized_sweep_point_fails_before_any_file(self, tmp_path, capsys):
        # the defaulted step shrinks with g, so only the second point's grid is past the budget
        doc = base_config(tmp_path / "sw.csv", sweep={"parameter": "g", "values": [0.2, 1000.0]})
        del doc["numerics"]["step"]
        doc["numerics"].update(t_end=100.0, sample_stride=1)
        p = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: sweep value g = 1000.0: numerics.sample_stride = 1 keeps 4000001 samples")
        assert err.count("\n") == 1
        assert sorted(f.name for f in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("section", ["numerics", "model", "drive", "sweep", "output"])
    @pytest.mark.parametrize("value", [5, [], None, "x"])
    def test_section_that_is_not_an_object_fails_validation(self, tmp_path, capsys, section, value):
        # a number used to raise TypeError, a list AttributeError, each with a traceback
        doc = base_config(tmp_path / "o.csv", **{section: value})
        p = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(p)]) == 1
        assert capsys.readouterr().err == f"config error: '{section}' section must be a JSON object, got {value!r}\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["config.json"]

    def test_underflowed_bose_ratio_fails_validation(self, tmp_path, capsys):
        # omega0/kT underflows to 0.0; the occupation used to raise ZeroDivisionError with a traceback
        doc = base_config(tmp_path / "o.csv")
        doc["model"] = {"omega0": 1e-308, "kT": 1e308, "gamma": 1.0}
        p = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(p)]) == 1
        assert capsys.readouterr().err == "config error: nbar must be finite, got inf\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("where", ["t_end", "sweep"])
    def test_integer_past_a_double_is_not_finite(self, tmp_path, capsys, where):
        big = 10**400
        values = [0.2, big if where == "sweep" else 0.3]
        doc = base_config(tmp_path / "o.csv", sweep={"parameter": "F0", "values": values})
        if where == "t_end":
            doc["numerics"]["t_end"] = big
        p = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        name = "'numerics.t_end' must be a finite number" if where == "t_end" else "sweep values must be finite numbers"
        assert err == f"config error: {name}, got {big!r}\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("path", ["", "/", "a\0b.csv", ".."], ids=["empty", "root", "nul", "parent"])
    def test_output_path_that_names_no_file_fails_validation(self, tmp_path, capsys, command, path):
        # under sweep these used to raise ValueError with a traceback; "" and "/" under simulate gave an io error
        path = str(tmp_path / path) if "\0" in path else path
        doc = base_config(path, sweep={"parameter": "F0", "values": [0.1, 0.2]})
        p = write_config(tmp_path, doc)
        assert main([command, "--config", str(p)]) == 1
        assert capsys.readouterr().err == f"config error: output.path must be a string naming a file, got {path!r}\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["config.json"]


class TestSimulate:
    @pytest.mark.parametrize("drive", [{"profile": "off"}, {"profile": "cd_sin_sq", "f0": 0.2, "omega_env": 0.5}],
                             ids=["off", "cd_sin_sq"])
    @pytest.mark.parametrize("nbar", [1e8, 1e12, 1e20, 1e60])
    def test_hot_bath_passes_the_relative_floor(self, tmp_path, capsys, nbar, drive):
        # the clamp floor scales with <b'b>: an absolute -1e-9 failed on the rounding of nb - (sqrt(M) - 1)/2
        numerics = {"step": 0.01, "t_end": 20.0, "sample_stride": 10}
        doc = base_config(tmp_path / "out.csv", drive=drive, numerics=numerics)
        doc["model"].update(gamma=0.05, nbar=nbar, tau=20.0)
        assert main(["simulate", "--config", str(write_config(tmp_path, doc))]) == 0, capsys.readouterr().err
        rows = np.loadtxt(tmp_path / "out.csv", delimiter=",", skiprows=1)
        cols = {name: rows[:, i] for i, name in enumerate(OUTPUT_COLUMNS)}
        assert len(rows) == 201 and np.isfinite(rows).all()
        assert (cols["ergotropy_b_over_omega0"] >= 0.0).all()
        assert (cols["ergotropy_b_over_omega0"] <= cols["e_b_over_omega0"]).all()

    def test_off_drive_zero_energy_columns(self, tmp_path):
        doc = base_config(tmp_path / "out.csv")
        doc["drive"] = {"profile": "off"}
        cfg = parse_config(doc)
        out = run_simulate(cfg)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ",".join(OUTPUT_COLUMNS)
        cols = {name: i for i, name in enumerate(OUTPUT_COLUMNS)}
        for line in lines[1:]:
            vals = line.split(",")
            for name in ("e_b_over_omega0", "ergotropy_b_over_omega0", "e_a_over_omega0"):
                assert float(vals[cols[name]]) == 0.0

    @pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
    def test_byte_identical_reruns(self, tmp_path, monkeypatch, name):
        # two runs of a shipped config write the same files, manifests and reports included
        config = CONFIGS / f"{name}.json"
        doc = json.loads(config.read_text())
        command = "sweep" if "sweep" in doc else "compare" if name.startswith("compare") else "simulate"
        written = []
        for run in ("first", "second"):
            (tmp_path / run).mkdir()
            monkeypatch.chdir(tmp_path / run)  # the configs write to relative paths
            assert main([command, "--config", str(config)]) == 0
            written.append({f.name: f.read_bytes() for f in (tmp_path / run).iterdir()})
        assert written[0] == written[1]
        files = {"simulate": 2, "sweep": 1 + 2 * len(doc.get("sweep", {}).get("values", [])), "compare": 1}
        assert len(written[0]) == files[command]

    def test_manifest_round_trip(self, tmp_path):
        cfg = parse_config(base_config(tmp_path / "run.csv"))
        out = run_simulate(cfg)
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["engine"] == "exact" and "engine" not in manifest["config"]
        # the echoed config alone must reproduce the run byte for byte
        echo = manifest["config"]
        echo["output"]["path"] = str(tmp_path / "rerun.csv")
        again = run_simulate(parse_config(echo))
        assert again.read_bytes() == out.read_bytes()

    def test_json_format(self, tmp_path):
        doc = base_config(tmp_path / "run.json")
        doc["output"]["format"] = "json"
        out = run_simulate(parse_config(doc))
        data = json.loads(out.read_text())
        assert data["columns"] == list(OUTPUT_COLUMNS)
        assert len(data["rows"][0]) == len(OUTPUT_COLUMNS)

    def test_cli_exit_zero(self, tmp_path):
        p = write_config(tmp_path, base_config(tmp_path / "out.csv"))
        assert main(["simulate", "--config", str(p)]) == 0

    def test_g_tau_column(self, tmp_path):
        cfg = parse_config(base_config(tmp_path / "out.csv"))
        out = run_simulate(cfg)
        lines = out.read_text().strip().split("\n")[1:]
        first = [float(v) for v in lines[-1].split(",")]
        assert first[1] == pytest.approx(0.2 * first[0], rel=1e-12)


class TestSweep:
    def test_kappa_sweep_files_and_manifest(self, tmp_path):
        doc = base_config(
            tmp_path / "fig2.csv", sweep={"parameter": "kappa", "values": [0.5, 1.0, 10.0]}
        )
        cfg = parse_config(doc)
        manifest_path, failed = run_sweep(cfg)
        assert not failed
        manifest = json.loads(manifest_path.read_text())
        assert manifest["engine"] == "exact"
        assert parse_config(manifest["config"]) == cfg
        assert [r["value"] for r in manifest["runs"]] == [0.5, 1.0, 10.0]
        for r in manifest["runs"]:
            assert (tmp_path / r["path"]).exists()
            assert r["status"] == "ok"

    @pytest.mark.parametrize("parameter,values", [
        ("g", [0.3]), ("kappa", [0.5, 1.0, 10.0]), ("F0", [0.1, 0.2, 0.4]), ("gamma", [0.05, 0.5, 2.0]),
        ("g", [0.1, 0.3, 0.5]),
    ], ids=["g_single", "kappa", "F0", "gamma", "g"])
    def test_sweep_points_match_simulate(self, tmp_path, monkeypatch, parameter, values):
        # the points share a grid and run as one batch; each artifact is a lone simulate's, byte for byte
        sizes = observe_batches(monkeypatch)
        doc = base_config(tmp_path / "s.csv", sweep={"parameter": parameter, "values": values})
        _, failed = run_sweep(parse_config(doc))
        assert not failed and sizes == [len(values)]
        for i, value in enumerate(values):
            plain = base_config(tmp_path / "plain.csv")
            section, key = SWEPT_KEYS[parameter]
            plain[section][key] = value
            out = run_simulate(parse_config(plain))
            assert (tmp_path / f"s_{i:02d}.csv").read_bytes() == out.read_bytes()

    def test_sweep_cli_exit(self, tmp_path):
        doc = base_config(tmp_path / "sw.csv", sweep={"parameter": "F0", "values": [0.1, 0.2]})
        p = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(p)]) == 0

    @pytest.mark.parametrize(
        "parameter,values,message",
        [
            ("F0", [0.1, -0.1, 0.3], "sweep value F0 = -0.1: drive amplitude f0 must be >= 0, got -0.1"),
            ("gamma", [1.0, 0.0], "sweep value gamma = 0.0: CD-corrected drive requires gamma or delta_r nonzero"),
            ("g", [0.2, -0.2], "sweep value g = -0.2: g must be >= 0, got -0.2"),
        ],
    )
    def test_invalid_point_fails_before_any_file(self, tmp_path, capsys, parameter, values, message):
        # the base config is valid (kappa = 1, so delta_r = 0 and only gamma keeps the CD denominator nonzero)
        doc = base_config(tmp_path / "sw.csv", sweep={"parameter": parameter, "values": values})
        p = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(p)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["config.json"]

    def test_failed_point_records_error_type(self, tmp_path):
        # F0 = 1e300 overflows the squared means of the second point
        doc = base_config(tmp_path / "sw.csv", sweep={"parameter": "F0", "values": [0.2, 1e300]})
        p = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(p)]) == 2
        ok, failed = json.loads((tmp_path / "sw.csv.manifest.json").read_text())["runs"]
        assert ok["status"] == "ok" and "error_type" not in ok
        assert failed["status"] == "error"
        assert failed["error_type"] == "InvariantViolation"

    def test_failed_points_print_one_runtime_error_line(self, tmp_path, capsys):
        # stdout, the exit code and the manifest are those of any failed sweep; stderr used to be empty
        doc = base_config(tmp_path / "sw.csv", sweep={"parameter": "F0", "values": [0.2, 1e300, 1e300]})
        p = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(p)]) == 2
        out, err = capsys.readouterr()
        manifest = tmp_path / "sw.csv.manifest.json"
        assert out == f"wrote {manifest}\n"
        first = json.loads(manifest.read_text())["runs"][1]
        assert first["status"] == "error"
        assert err == f"runtime error: sweep: 2 of 3 points failed; first F0 = 1e+300: {first['error']}\n"

    def test_overflow_reported_only_as_typed_error(self, tmp_path):
        # F0 = 1e300 overflows the squared means; the point's InvariantViolation
        # is the only report, with no numpy RuntimeWarning on stderr
        doc = json.loads((CONFIGS / "fig3_underdamped.json").read_text())
        doc["sweep"] = {"parameter": "F0", "values": [0.2, 1e300]}
        doc["output"]["path"] = str(tmp_path / "fig3.csv")
        p = write_config(tmp_path, doc)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}  # finds qbattery as this run does
        cmd = [sys.executable, "-m", "qbattery.cli", "sweep", "--config", str(p)]
        out = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert out.returncode == 2
        ok, failed = json.loads((tmp_path / "fig3.csv.manifest.json").read_text())["runs"]
        assert ok["status"] == "ok"
        assert failed["error_type"] == "InvariantViolation"
        assert "RuntimeWarning" not in out.stderr

    def test_default_step_resolved_per_point(self, tmp_path):
        # each point resolves default_step from its own omega_env: 0.01, 0.005, 0.00125
        doc = json.loads((CONFIGS / "fig3_underdamped.json").read_text())
        del doc["numerics"]["step"]
        doc["sweep"] = {"parameter": "omega_env", "values": [0.5, 5.0, 20.0]}
        doc["output"]["path"] = str(tmp_path / "fig3.csv")
        p = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(p)]) == 0
        manifest = json.loads((tmp_path / "fig3.csv.manifest.json").read_text())
        assert parse_config(manifest["config"]) == parse_config(doc)
        for run, step in zip(manifest["runs"], [0.01, 0.005, 0.00125]):
            assert run["status"] == "ok"
            point = json.loads((tmp_path / f"{run['path']}.manifest.json").read_text())
            assert point["config"]["numerics"]["step"] == step
        # the last point's echo alone reproduces it
        echo = point["config"]
        echo["output"]["path"] = str(tmp_path / "rerun.csv")
        again = run_simulate(parse_config(echo))
        assert again.read_bytes() == (tmp_path / "fig3_02.csv").read_bytes()

    def test_auto_step_points_batch_by_grid(self, tmp_path, monkeypatch):
        # default steps 0.01, 0.01, 0.005, 0.00125, 0.01: consecutive points on one grid share a batch,
        # and each point's echo alone reproduces its artifact
        sizes = observe_batches(monkeypatch)
        doc = json.loads((CONFIGS / "fig3_underdamped.json").read_text())
        del doc["numerics"]["step"]
        doc["model"]["nbar"] = 0.3
        doc["sweep"] = {"parameter": "omega_env", "values": [0.5, 1.0, 5.0, 20.0, 0.7]}
        doc["output"]["path"] = str(tmp_path / "fig3.csv")
        assert main(["sweep", "--config", str(write_config(tmp_path, doc))]) == 0
        assert sizes == [2, 1, 1, 1]
        for run in json.loads((tmp_path / "fig3.csv.manifest.json").read_text())["runs"]:
            echo = json.loads((tmp_path / f"{run['path']}.manifest.json").read_text())["config"]
            echo["output"]["path"] = str(tmp_path / "rerun.csv")
            assert run_simulate(parse_config(echo)).read_bytes() == (tmp_path / run["path"]).read_bytes()

    def test_batches_stay_within_max_rows(self, tmp_path, monkeypatch):
        # three points of 400,001 samples keep more than MAX_ROWS in all: they run as two batches, each
        # within the budget of one run. The stand-in runs nothing, so no 400,001-row file is written.
        rows = run_size(0.01, 4000.0, 4000.0, 1)[1]
        sizes = []

        def observe(runs, step, t_end, sample_stride):
            sizes.append(len(runs) * run_size(step, t_end, runs[0].params.tau, sample_stride)[1])
            return [InvariantViolation("not run") for _ in runs]

        monkeypatch.setattr(cli, "propagate_batch", observe)
        numerics = {"step": 0.01, "t_end": 4000.0, "sample_stride": 1}
        doc = base_config(tmp_path / "big.csv", drive=STATIC, numerics=numerics,
                          sweep={"parameter": "F0", "values": [0.1, 0.2, 0.3]})
        doc["model"]["tau"] = 4000.0
        _, failed = run_sweep(parse_config(doc))
        assert sizes == [2 * rows, rows] and max(sizes) <= MAX_ROWS < sum(sizes)
        assert [run["error"] for run in failed] == ["not run"] * 3


@pytest.mark.parametrize("omega0", [0.7, 3.0, 1e8, 1e308])
def test_over_omega0_columns_are_read_at_unit_omega0(tmp_path, omega0):
    # dividing omega0 back out wrote inf at 1e308, failed the clamp at 1e8 and moved e_b off nb at 3.0
    cd = {"profile": "cd_sin_sq", "f0": 0.2, "omega_env": 0.5}
    for command, drive, out in (("simulate", {"profile": "off"}, "off.csv"), ("simulate", cd, "cd.csv"),
                                ("compare", cd, "cmp.json")):
        doc = base_config(tmp_path / out, drive=drive, numerics={"step": 0.01, "t_end": 20.0, "sample_stride": 10})
        doc["model"] = {"omega0": omega0, "g": 0.2, "gamma": 0.05, "nbar": 0.3, "tau": 20.0}
        assert main([command, "--config", str(write_config(tmp_path, doc))]) == 0
        text = (tmp_path / out).read_text()
        assert "Infinity" not in text and "NaN" not in text
        if command == "compare":
            assert all(math.isfinite(v) for v in json.loads(text)["max_ergotropy_over_omega0"].values())
            continue
        header, *lines = (line.split(",") for line in text.splitlines())
        assert np.isfinite(np.array(lines, dtype=float)).all()
        e_b, nb = header.index("e_b_over_omega0"), header.index("nb_re")
        assert all(row[e_b] == row[nb] for row in lines)


def oversized_fig3(out_path, **sections):
    """The fig3 model driven by static F0 1.7e308 at step 1: its leg generator's infinity norm is past 2^1023."""
    doc = json.loads((CONFIGS / "fig3_underdamped.json").read_text())
    doc["drive"] = {"profile": "static", "f0": 1.7e308}
    doc["numerics"]["step"] = 1
    doc["output"]["path"] = str(out_path)
    return {**doc, **sections}


class TestOversizedGenerator:
    """A validated run whose leg generator is past 2^1023 fails at its first sample as one runtime error line."""

    MESSAGE = "sample 1 at t=10: non-finite moment: centered na=nan, nb=nan"

    def test_simulate(self, tmp_path, capsys):
        p = write_config(tmp_path, oversized_fig3(tmp_path / "big.csv"))
        assert main(["simulate", "--config", str(p)]) == 2
        assert capsys.readouterr().err == f"runtime error: {self.MESSAGE}\n"

    def test_sweep_fails_only_its_point(self, tmp_path, monkeypatch, capsys):
        sizes = observe_batches(monkeypatch)
        doc = oversized_fig3(tmp_path / "sw.csv", sweep={"parameter": "F0", "values": [0.2, 1.7e308, 0.3]})
        assert main(["sweep", "--config", str(write_config(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert err == f"runtime error: sweep: 1 of 3 points failed; first F0 = 1.7e+308: {self.MESSAGE}\n"
        runs = json.loads((tmp_path / "sw.csv.manifest.json").read_text())["runs"]
        assert [run["status"] for run in runs] == ["ok", "error", "ok"] and sizes == [3]
        assert runs[1]["error_type"] == "InvariantViolation" and not (tmp_path / "sw_01.csv").exists()
        for i, f0 in ((0, 0.2), (2, 0.3)):
            plain = oversized_fig3(tmp_path / "plain.csv")
            plain["drive"]["f0"] = f0
            assert (tmp_path / f"sw_{i:02d}.csv").read_bytes() == run_simulate(parse_config(plain)).read_bytes()

    def test_compare(self, tmp_path, capsys):
        doc = oversized_fig3(tmp_path / "cmp.json")
        doc["drive"] = {"profile": "cd_sin_sq", "f0": 1.7e308, "omega_env": 0.5}
        assert main(["compare", "--config", str(write_config(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: sample 1 at t=10: non-finite moment") and err.count("\n") == 1


def test_one_verdict_pass_per_batch(tmp_path, monkeypatch):
    # the fig3 F0 sweep with one overflowing point runs as one batch: the engine judges all five members in one
    # bona fide pass and energetics reads the four it accepts in one pass (one battery-rule evaluation)
    calls = {"engine": 0, "energetics": 0}

    def counted(key, fn):
        def count(*args):
            calls[key] += 1
            return fn(*args)
        return count

    monkeypatch.setattr(dynamics, "_bona_fide", counted("engine", dynamics._bona_fide))
    monkeypatch.setattr(energetics, "_positive_2x2", counted("energetics", energetics._positive_2x2))
    sizes = observe_batches(monkeypatch)
    doc = json.loads((CONFIGS / "fig3_underdamped.json").read_text())
    doc["sweep"] = {"parameter": "F0", "values": [0.2, 1e300, 0.3, 0.4, 0.5]}
    doc["output"]["path"] = str(tmp_path / "fig3.csv")
    assert main(["sweep", "--config", str(write_config(tmp_path, doc))]) == 2
    assert sizes == [5] and calls == {"engine": 1, "energetics": 1}


def doctor_batches(monkeypatch, f0):
    """From now on, the CLI's batches give each member driven at amplitude ``f0`` a Sigma22 of -0.5 at sample 50:
    the engine's verdict passes it, and the battery rule of energetics breaks there."""
    batch = cli.propagate_batch

    def doctored(runs, *args):
        out = batch(runs, *args)
        for i in (i for i, run in enumerate(runs) if run.profile.f0 == f0):
            sigma = out[i].sigma.copy()
            sigma[7, 50] = -0.5
            out[i] = Trajectory(times=out[i].times, mu=out[i].mu, sigma=sigma, params=out[i].params)
        return out

    monkeypatch.setattr(cli, "propagate_batch", doctored)


class TestUnphysicalRead:
    """A member that energetics refuses is its UnphysicalState, from command to artifact: no file is written."""

    NUMERICS = {"step": 0.01, "t_end": 2.0, "sample_stride": 1}
    PREFIX = "sample 50 at t=0.5: battery covariance breaks the uncertainty principle: "

    def test_simulate_writes_nothing(self, tmp_path, monkeypatch, capsys):
        doctor_batches(monkeypatch, 0.2)
        p = write_config(tmp_path, base_config(tmp_path / "run.csv", numerics=self.NUMERICS))
        assert main(["simulate", "--config", str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"runtime error: {self.PREFIX}") and err.count("\n") == 1
        assert sorted(f.name for f in tmp_path.iterdir()) == ["config.json"]

    def test_sweep_fails_only_its_point(self, tmp_path, monkeypatch, capsys):
        doctor_batches(monkeypatch, 0.2)
        doc = base_config(tmp_path / "sw.csv", numerics=self.NUMERICS,
                          sweep={"parameter": "F0", "values": [0.1, 0.2, 0.3]})
        assert main(["sweep", "--config", str(write_config(tmp_path, doc))]) == 2
        runs = json.loads((tmp_path / "sw.csv.manifest.json").read_text())["runs"]
        assert [run["status"] for run in runs] == ["ok", "error", "ok"]
        assert runs[1]["error_type"] == "UnphysicalState" and runs[1]["error"].startswith(self.PREFIX)
        assert not (tmp_path / "sw_01.csv").exists() and not (tmp_path / "sw_01.csv.manifest.json").exists()
        capsys.readouterr()
        # the doctored point's lone simulate fails with the same message; the others' artifacts are lone simulates'
        plain = base_config(tmp_path / "plain.csv", numerics=self.NUMERICS)
        plain["drive"]["f0"] = 0.2
        assert main(["simulate", "--config", str(write_config(tmp_path, plain, "plain.json"))]) == 2
        assert capsys.readouterr().err == f"runtime error: {runs[1]['error']}\n"
        monkeypatch.undo()
        for i, f0 in ((0, 0.1), (2, 0.3)):
            plain["drive"]["f0"] = f0
            assert (tmp_path / f"sw_{i:02d}.csv").read_bytes() == run_simulate(parse_config(plain)).read_bytes()


class TestCompare:
    def test_zero_drive_reports_null_ratios(self, tmp_path):
        doc = base_config(tmp_path / "cmp.json")
        doc["drive"]["f0"] = 0.0
        report = compare_drives(parse_config(doc))
        assert report["max_ergotropy_over_omega0"]["cd"] == 0.0
        assert report["ratios"]["cd_over_static"] is None
        assert report["ratios"]["cd_over_bare"] is None

    def test_requires_cd_profile(self, tmp_path):
        doc = base_config(tmp_path / "cmp.json")
        doc["drive"]["profile"] = "sin_sq"
        with pytest.raises(ConfigError):
            compare_drives(parse_config(doc))

    def test_cd_converges_to_bare_at_strong_damping(self, tmp_path):
        # |correction| <= 2 F0 w / gamma, so the gain over the bare envelope
        # must die off as gamma grows
        def ratio_at(gamma, step):
            doc = base_config(tmp_path / "x.json")
            doc["model"]["gamma"] = gamma
            doc["model"]["tau"] = 3.0
            doc["numerics"] = {"step": step, "t_end": 3.0, "sample_stride": 5}
            return compare_drives(parse_config(doc))["ratios"]["cd_over_bare"]

        r20 = ratio_at(20.0, 0.002)
        r80 = ratio_at(80.0, 0.0005)
        assert abs(r80 - 1.0) < abs(r20 - 1.0)
        assert abs(r80 - 1.0) < 0.05

    @pytest.mark.parametrize("name", ["compare_underdamped", "compare_overdamped"])
    @pytest.mark.parametrize("stride", [1, 10])
    def test_report_matches_lone_runs(self, tmp_path, name, stride):
        # the three partners run as one batch; the report is that of three lone propagate runs
        doc = json.loads((CONFIGS / f"{name}.json").read_text())
        doc["model"]["nbar"] = 0.3
        doc["numerics"]["sample_stride"] = stride
        config = parse_config(doc)
        maxima, argmax = {}, {}
        for partner, profile in (("cd", config.profile),
                                 ("bare", DriveProfile.sin_sq(config.profile.f0, config.profile.omega_env)),
                                 ("static", DriveProfile.static(config.profile.f0))):
            traj = propagate(config.params, profile, config.step, config.t_end, config.sample_stride)
            series = energetics.energy_columns(traj.mu, traj.sigma, 1.0, traj.times)[1]
            k = int(np.argmax(series))
            maxima[partner], argmax[partner] = float(series[k]), float(config.params.g * traj.times[k])
        report = compare_drives(config)
        assert report["max_ergotropy_over_omega0"] == maxima and report["argmax_g_tau"] == argmax
        assert report["ratios"] == {"cd_over_static": maxima["cd"] / maxima["static"],
                                    "cd_over_bare": maxima["cd"] / maxima["bare"]}

    def test_compare_writes_report(self, tmp_path):
        doc = base_config(tmp_path / "cmp_report.json")
        p = write_config(tmp_path, doc)
        assert main(["compare", "--config", str(p)]) == 0
        report = json.loads((tmp_path / "cmp_report.json").read_text())
        assert set(report["max_ergotropy_over_omega0"]) == {"cd", "bare", "static"}
        assert report["config"]["drive"]["profile"] == "cd_sin_sq"


def passing_oracle_check():
    """Stand-in for the oracle group (about 0.8 s) where a test does not exercise it."""
    return [close_check(name, 0.0, 1e-6) for name in ("moments_vs_oracle_cd_drive", "moments_vs_oracle_static_drive")]


def run_selftest(tmp_path, capsys):
    """Exit code, stdout lines, stderr and JSON report of ``qbattery selftest --json``."""
    out = tmp_path / "selftest.json"
    code = main(["selftest", "--json", str(out)])
    printed = capsys.readouterr()
    return code, printed.out.splitlines(), printed.err, json.loads(out.read_text())


class TestSelftest:
    def test_corrupted_fixture_fails_with_name(self):
        # harness behavior: a deliberately wrong deviation must surface the
        # named invariant, not a generic failure
        rec = close_check("decomposition_energy_additivity", deviation=0.5, tol=1e-6)
        assert rec["status"] == "fail"
        assert rec["name"] == "decomposition_energy_additivity"

    def test_full_report_passes(self, tmp_path):
        report = selftest_report()
        names = [c["name"] for c in report["checks"]]
        assert "moments_vs_oracle_cd_drive" in names
        assert "transitionless_cd_overlap" in names
        assert report["status"] == "pass"
        for check in report["checks"]:
            assert check["status"] in ("pass", "warn")

    def test_selftest_cli_writes_json(self, tmp_path, capsys):
        out = tmp_path / "selftest.json"
        assert main(["selftest", "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["status"] == "pass"
        printed = capsys.readouterr().out
        assert "selftest: PASS" in printed
        # wall times and oracle diagnostics go to the JSON report only
        assert "seconds" not in printed
        for check in report["checks"]:
            assert check["seconds"] > 0.0
            if check["name"].startswith("moments_vs_oracle"):
                assert 0.0 < check["max_leak"] < 1e-6
                assert 0.0 <= check["max_trace_drift"] < 1e-8

    def test_skewed_split_fails_its_own_check(self, tmp_path, capsys, monkeypatch):
        # the drive-off run's <b'b> off by 1e-4: decompose returns the residual and raises nothing,
        # and the selftest's check is what fails it, with every other check still reported
        def skewed(params, profile, *args):
            traj = propagate(params, profile, *args)
            if profile.kind is DriveKind.OFF:
                traj.sigma[[7, 9]] += 0.5e-4  # Sigma_B stays isotropic, so only <b'b> moves
            return traj

        monkeypatch.setattr(energetics, "propagate", skewed)
        monkeypatch.setattr(cli, "_selftest_oracle_check", passing_oracle_check)
        params = ModelParams(omega0=1.0, g=0.2, gamma=1.0, nbar=0.5, delta_r=0.0, tau=10.0)
        result = energetics.decompose(params, DriveProfile.cd_sin_sq(0.3, 0.5), 0.005, 10.0, 10)
        assert result.max_energy_residual == pytest.approx(1e-4)
        code, lines, err, report = run_selftest(tmp_path, capsys)
        assert code == 3 and err == ""
        assert len(lines) == 9 and lines[-1] == "selftest: FAIL"
        assert "decomposition_energy_additivity: FAIL" in lines
        assert report["status"] == "fail" and len(report["checks"]) == 8

    def test_a_group_that_raises_is_one_failed_check(self, tmp_path, capsys, monkeypatch):
        def leak(*args, **kwargs):
            raise TruncationLeak("forced")

        monkeypatch.setattr(oracle, "dense_evolve", leak)
        code, lines, err, report = run_selftest(tmp_path, capsys)
        assert code == 3 and err == ""
        assert lines[0] == "oracle_check: FAIL" and lines[-1] == "selftest: FAIL"
        assert len(lines) == 8  # the failed group's record, the 6 checks of the other groups, the verdict
        failed, *others = report["checks"]
        assert (failed["name"], failed["status"], failed["error"]) == ("oracle_check", "fail", "TruncationLeak: forced")
        assert report["status"] == "fail" and len(others) == 6
        assert all(c["status"] in ("pass", "warn") for c in others)


class TestEntryPoint:
    def test_usage_errors_exit_one_and_parser_survives(self, tmp_path, capsys):
        for argv in (["simulate"], ["bogus"], []):
            assert main(argv) == 1
            assert "usage: qbattery" in capsys.readouterr().err
        assert main(["--help"]) == 0
        assert "usage: qbattery" in capsys.readouterr().out
        # the parser is built once per process; a usage error leaves it usable
        p = write_config(tmp_path, base_config(tmp_path / "out.csv"))
        assert main(["simulate", "--config", str(p)]) == 0
        assert (tmp_path / "out.csv").exists()

    def test_usage_error_exit_code_of_the_process(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-m", "qbattery.cli", "simulate"], capture_output=True, text=True, env=env)
        assert out.returncode == 1
        assert "--config" in out.stderr

    def test_cli_import_leaves_out_selftest_modules(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        code = "import sys, qbattery.cli; print([m for m in ('qbattery.oracle', 'qbattery.analytic') if m in sys.modules])"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout == "[]\n"

    def test_in_process_sequence_matches_fresh_processes(self, tmp_path):
        # one process running simulate, compare, sweep and simulate writes the
        # bytes that four fresh processes write
        runs = [
            ("simulate", "fig3_underdamped", "fig3.csv", "csv"),
            ("compare", "compare_underdamped", "compare.json", "json"),
            ("sweep", "fig2_overdamped_sweep", "fig2.csv", "csv"),
            ("simulate", "thermal_charging", "thermal.json", "json"),
        ]
        out_dir = tmp_path / "out"
        commands = []
        for command, name, out_name, fmt in runs:
            doc = json.loads((CONFIGS / f"{name}.json").read_text())
            doc["output"] = {"path": str(out_dir / out_name), "format": fmt}
            commands.append([command, "--config", str(write_config(tmp_path, doc, f"{name}.json"))])

        def artifacts():
            written = {p.name: p.read_bytes() for p in out_dir.iterdir()}
            for p in out_dir.iterdir():
                p.unlink()
            return written

        out_dir.mkdir()
        for argv in commands:
            assert main(argv) == 0
        in_process = artifacts()
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        for argv in commands:
            subprocess.run([sys.executable, "-m", "qbattery.cli", *argv], check=True, capture_output=True, env=env)
        assert len(in_process) == 12  # each run and sweep point has its manifest, and so has the sweep
        assert artifacts() == in_process
