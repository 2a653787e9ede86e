import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qbattery.cli import (
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
from qbattery.dynamics import default_step
from qbattery.errors import ConfigError

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


def write_config(tmp_path, doc, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


class TestConfigParsing:
    def test_missing_file_exits_one(self, capsys):
        assert main(["simulate", "--config", "/nonexistent/xx.json"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_malformed_json_exits_one(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        assert main(["simulate", "--config", str(p)]) == 1

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

    @pytest.mark.parametrize("omega_env,expected", [(0.5, 0.01), (5.0, 0.005)])
    def test_default_step(self, tmp_path, omega_env, expected):
        doc = base_config(tmp_path / "o.csv")
        del doc["numerics"]["step"]
        doc["drive"]["omega_env"] = omega_env
        cfg = parse_config(doc)
        assert cfg.step == default_step(cfg.params, cfg.profile) == expected
        assert cfg.auto_step and "step" not in cfg.to_dict()["numerics"]
        assert parse_config(cfg.to_dict()) == cfg

    def test_kappa_resolves_detuning(self, tmp_path):
        doc = base_config(tmp_path / "o.csv")
        doc["model"]["kappa"] = 0.5
        cfg = parse_config(doc)
        assert cfg.params.delta_r == pytest.approx(0.5)


class TestSimulate:
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
        manifest_path, ok = run_sweep(cfg)
        assert ok
        manifest = json.loads(manifest_path.read_text())
        assert manifest["engine"] == "exact"
        assert parse_config(manifest["config"]) == cfg
        assert [r["value"] for r in manifest["runs"]] == [0.5, 1.0, 10.0]
        for r in manifest["runs"]:
            assert (tmp_path / r["path"]).exists()
            assert r["status"] == "ok"

    def test_single_value_sweep_matches_simulate(self, tmp_path):
        doc = base_config(tmp_path / "s.csv", sweep={"parameter": "g", "values": [0.3]})
        _, ok = run_sweep(parse_config(doc))
        assert ok
        plain = base_config(tmp_path / "plain.csv")
        plain["model"]["g"] = 0.3
        out = run_simulate(parse_config(plain))
        assert (tmp_path / "s_00.csv").read_bytes() == out.read_bytes()

    def test_sweep_cli_exit(self, tmp_path):
        doc = base_config(tmp_path / "sw.csv", sweep={"parameter": "F0", "values": [0.1, 0.2]})
        p = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(p)]) == 0


    def test_failed_point_records_error_type(self, tmp_path):
        # F0 = 1e300 overflows the squared means of the second point
        doc = base_config(tmp_path / "sw.csv", sweep={"parameter": "F0", "values": [0.2, 1e300]})
        p = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(p)]) == 2
        ok, failed = json.loads((tmp_path / "sw.csv.manifest.json").read_text())["runs"]
        assert ok["status"] == "ok" and "error_type" not in ok
        assert failed["status"] == "error"
        assert failed["error_type"] == "InvariantViolation"

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

    def test_compare_writes_report(self, tmp_path):
        doc = base_config(tmp_path / "cmp_report.json")
        p = write_config(tmp_path, doc)
        assert main(["compare", "--config", str(p)]) == 0
        report = json.loads((tmp_path / "cmp_report.json").read_text())
        assert set(report["max_ergotropy_over_omega0"]) == {"cd", "bare", "static"}
        assert report["config"]["drive"]["profile"] == "cd_sin_sq"


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
