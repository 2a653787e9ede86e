"""Workload inputs, the ops that consume them, and the checks on every output.

An op is one call into ``qbattery``'s public entry points that the benchmark
client makes and waits for. Op ``i`` of a workload is built from
``random.Random(f"{workload}/{seed}/{i}")`` alone, so the same seed gives the
same inputs and any op can be rebuilt on its own.

Each workload repeats a fixed cycle of op slots of odd length. A slot fixes
what an op costs (command, base configuration, drive kind, thermal or not,
step, t_end, stride, sweep size); the seed draws the physical parameters
around the shipped ``configs/*.json``. Runs stop on a cycle boundary, so the
median op falls in the same slot on every run and seed, which keeps
``op_p50_s`` steady while the inputs still change with the seed.
"""

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import grid_samples

# Base configurations; the values mirror configs/*.json at the time the
# benchmark was defined, kept here so that editing an example config does not
# change the benchmark's inputs.
FIG3 = {"g": 0.2, "gamma": 0.05, "tau": 20.0, "f0": 0.2, "omega_env": 0.5, "step": 0.01, "t_end": 20.0}
THERMAL = {"g": 0.2, "gamma": 1.0, "tau": 15.0, "f0": 0.2, "omega_env": 0.5, "step": 0.01, "t_end": 15.0}
FIG2 = dict(THERMAL)
COMPARE_UNDER = dict(FIG3)
COMPARE_OVER = {"g": 0.2, "gamma": 1.0, "tau": 1.0, "f0": 0.2, "omega_env": 2.0, "step": 0.002, "t_end": 1.0}

FIGURE_STRIDE = 10
# Peak CD correction f0*omega_env/|delta_r - i*gamma/2| allowed in a draw; the
# shipped fig3 config sits at 4. Underdamped draws near delta_r = 0 reach about
# 6, where the centered-occupation cancellation (ROADMAP item 2) fails
# integrate's invariant check, so f0 is scaled down to stay at or below 4.
CD_AMPLITUDE_MAX = 4.0
SWEEP_RANGES = {
    "kappa": (0.5, 10.0),
    "gamma": (0.05, 1.5),
    "F0": (0.05, 0.4),
    "g": (0.05, 0.5),
    "omega_env": (0.25, 1.0),
}

ORACLE_CUTOFFS = (14, 14)
ORACLE_STEP = 0.01
ORACLE_T_END = 1.0
ORACLE_STRIDE = 10
ORACLE_TOL = 1e-6

M_TOL = 1e-6
# qbattery accepts M down to 1 - M_TOL as physical; for such M the Gaussian
# passive energy (sqrt(M) - 1)/2 is slightly negative, so ergotropy may exceed
# e_b by at most this much
ERGOTROPY_EXCESS = (1.0 - math.sqrt(1.0 - M_TOL)) / 2.0
DECOMPOSE_TOL = 1e-6

#: ops whose inputs make up the input digest
DIGEST_OPS = 16

#: scratch directory for op inputs and artifacts, relative to the checkout root
WORK_DIR = ".perfbench_work"


class CheckFailed(Exception):
    """An op's output broke one of the benchmark's checks."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    """One generated op: what to run, and what its inputs request."""

    kind: str  # simulate | sweep | compare | decompose | validate | oracle
    doc: dict  # configuration document handed to qbattery
    sim_time: float  # sum of t_end over every trajectory the inputs request
    rows: int  # artifact rows the inputs request


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def _jitter(rng: random.Random, x: float, rel: float = 0.2) -> float:
    return x * rng.uniform(1.0 - rel, 1.0 + rel)


def _config(rng, base, profile, thermal, stride, out_path, out_format="csv"):
    model = {
        "omega0": 1.0,
        "g": _jitter(rng, base["g"]),
        "gamma": _jitter(rng, base["gamma"]),
        "kappa": rng.uniform(0.8, 1.2),
        "tau": base["tau"],
    }
    if thermal:
        # both spellings of the bath temperature occur in real configs
        if rng.random() < 0.5:
            model["kT"] = rng.uniform(0.5, 1.5)
        else:
            model["nbar"] = rng.uniform(0.1, 1.0)
    else:
        model["nbar"] = 0.0
    drive = {"profile": profile, "f0": _jitter(rng, base["f0"])}
    if profile in ("sin_sq", "cd_sin_sq"):
        drive["omega_env"] = _jitter(rng, base["omega_env"])
    if profile == "cd_sin_sq":
        amplitude = drive["f0"] * drive["omega_env"] / abs(complex(1.0 - model["kappa"], -0.5 * model["gamma"]))
        if amplitude > CD_AMPLITUDE_MAX:
            drive["f0"] *= CD_AMPLITUDE_MAX / amplitude
    return {
        "model": model,
        "drive": drive,
        "numerics": {"step": base["step"], "t_end": base["t_end"], "sample_stride": stride},
        "output": {"path": out_path, "format": out_format},
    }


def _samples(doc: dict) -> int:
    n = doc["numerics"]
    return grid_samples(n["step"], n["t_end"], doc["model"]["tau"], n["sample_stride"])


def _figure_op(rng, slot, out_dir):
    command, base, profile, thermal, sweep_points = slot
    if command == "sweep":
        out = f"{out_dir}/sweep.csv"
    elif command == "compare":
        out = f"{out_dir}/compare.json"
    else:
        out = f"{out_dir}/run.csv"
    doc = _config(rng, base, profile, thermal, FIGURE_STRIDE, out, "json" if command == "compare" else "csv")
    t_end = doc["numerics"]["t_end"]
    if command == "simulate":
        return Op(command, doc, t_end, _samples(doc))
    if command == "compare":
        return Op(command, doc, 3 * t_end, 0)
    parameter = "kappa" if sweep_points == 3 else rng.choice(sorted(SWEEP_RANGES))
    lo, hi = SWEEP_RANGES[parameter]
    doc["sweep"] = {"parameter": parameter, "values": sorted(rng.uniform(lo, hi) for _ in range(sweep_points))}
    return Op(command, doc, sweep_points * t_end, sweep_points * _samples(doc))


# (command, base, drive profile, thermal, sweep points)
FIGURE_SLOTS = (
    ("simulate", FIG3, "cd_sin_sq", False, 0),
    ("simulate", THERMAL, "static", True, 0),
    ("sweep", FIG2, "cd_sin_sq", False, 3),
    ("compare", COMPARE_UNDER, "cd_sin_sq", True, 0),
    ("compare", COMPARE_OVER, "cd_sin_sq", False, 0),
    ("simulate", FIG3, "sin_sq", True, 0),
    ("sweep", THERMAL, "sin_sq", True, 5),
)


def _dense_op(rng, slot, out_dir):
    if slot == "simulate_csv":
        doc = _config(rng, FIG3, "cd_sin_sq", False, 1, f"{out_dir}/run.csv")
    elif slot == "simulate_json":
        doc = _config(rng, THERMAL, "static", True, 1, f"{out_dir}/run.json", "json")
    elif slot == "simulate_csv_thermal":
        doc = _config(rng, FIG3, "sin_sq", True, 1, f"{out_dir}/run.csv")
    elif slot == "decompose":
        doc = _config(rng, THERMAL, "cd_sin_sq", True, 1, None)
        return Op("decompose", doc, 3 * doc["numerics"]["t_end"], 0)
    else:
        # zero temperature, resonant (the closed form's regime); g stays clear
        # of critical damping gamma = 4g and of the resonance g = 2*omega_env
        gamma = rng.choice((0.05, 1.0))
        g = rng.uniform(0.1, 0.2) if gamma == 1.0 else rng.uniform(0.1, 0.25)
        doc = {
            "model": {"omega0": 1.0, "g": g, "gamma": gamma, "nbar": 0.0, "kappa": 1.0, "tau": 15.0},
            "drive": {"profile": "cd_sin_sq", "f0": rng.uniform(0.02, 0.2), "omega_env": rng.uniform(0.4, 0.6)},
            "numerics": {"step": 0.01, "t_end": 15.0, "sample_stride": 5},
        }
        return Op("validate", doc, doc["numerics"]["t_end"], 0)
    return Op("simulate", doc, doc["numerics"]["t_end"], _samples(doc))


DENSE_SLOTS = ("simulate_csv", "simulate_json", "decompose", "validate", "simulate_csv_thermal")


def _oracle_op(rng, slot, out_dir):
    profile, thermal = slot
    gamma = rng.choice((0.05, 1.0))
    delta_r = 0.0 if rng.random() < 0.5 else rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 0.5)
    omega_env = rng.uniform(0.25, 0.5)
    # amplitudes follow the criterion-01 box (F0 <= 0.5, nbar <= 0.2 so the
    # thermal tail stays below the cutoff, smaller F0 where the CD correction
    # f0*omega_env/|delta_r - i*gamma/2| is large)
    if gamma == 1.0:
        f0 = rng.uniform(0.05, 0.5)
    elif profile == "static" or delta_r != 0.0:
        f0 = rng.uniform(0.02, 0.1)
    else:
        f0 = rng.uniform(0.005, 0.02)
    drive = {"profile": profile, "f0": f0}
    if profile == "cd_sin_sq":
        drive["omega_env"] = omega_env
    doc = {
        "model": {
            "omega0": 1.0,
            "g": rng.uniform(0.1, 0.5),
            "gamma": gamma,
            "nbar": rng.uniform(0.05, 0.2) if thermal else 0.0,
            "delta_r": delta_r,
            "tau": ORACLE_T_END,
        },
        "drive": drive,
        "numerics": {"step": ORACLE_STEP, "t_end": ORACLE_T_END, "sample_stride": ORACLE_STRIDE},
    }
    return Op("oracle", doc, 2 * ORACLE_T_END, 0)


ORACLE_SLOTS = (("cd_sin_sq", False), ("static", True), ("cd_sin_sq", True))


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple
    make: object

    @property
    def op_dir(self) -> str:
        """Where ops write, relative to the checkout root (one op at a time)."""
        return f"{WORK_DIR}/{self.name}/op"

    def op(self, seed: int, index: int) -> Op:
        rng = random.Random(f"{self.name}/{seed}/{index}")
        return self.make(rng, self.slots[index % len(self.slots)], self.op_dir)

    def digest(self, seed: int) -> str:
        docs = [self.op(seed, i).doc for i in range(DIGEST_OPS)]
        return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("figure_cli", FIGURE_SLOTS, _figure_op),
        Workload("dense_analysis", DENSE_SLOTS, _dense_op),
        Workload("oracle_crosscheck", ORACLE_SLOTS, _oracle_op),
    )
}


# ---------------------------------------------------------------------------
# running one op
# ---------------------------------------------------------------------------

def prepare(op: Op, op_dir: Path) -> Path:
    """Write the op's input document into a fresh ``op_dir``; returns its path."""
    shutil.rmtree(op_dir, ignore_errors=True)
    op_dir.mkdir(parents=True)
    path = op_dir / "input.json"
    path.write_text(json.dumps(op.doc, sort_keys=True, indent=1), encoding="utf-8")
    return path


def run(op: Op, config_path: Path):
    """Make the op's call into qbattery and return what it produced.

    This is the timed part of an op: everything the client waits for.
    """
    from qbattery import analytic, cli, energetics, oracle
    from qbattery.dynamics import integrate

    if op.kind in ("simulate", "sweep", "compare"):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main([op.kind, "--config", str(config_path)])
        return rc, stderr.getvalue()
    cfg = cli.load_config(str(config_path))
    if op.kind == "decompose":
        return energetics.decompose(cfg.params, cfg.profile, cfg.step, cfg.t_end, cfg.sample_stride)
    if op.kind == "validate":
        return analytic.validate_against_numerics(
            cfg.params, cfg.profile, t_end=cfg.t_end, sample_stride=cfg.sample_stride
        )
    dense = oracle.dense_evolve(
        cfg.params, cfg.profile, cutoffs=ORACLE_CUTOFFS, step=cfg.step, t_end=cfg.t_end,
        sample_stride=cfg.sample_stride,
    )
    traj = integrate(cfg.params, cfg.profile, cfg.step / 2, cfg.t_end, sample_stride=2 * cfg.sample_stride)
    moments = np.array([oracle.extract_moments(s).as_array() for s in dense.states])
    return dense.times, moments, traj


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check(op: Op, outcome, op_dir: Path) -> tuple[bytes, float]:
    """Check every output of ``op``; returns (digest of the outputs, oracle max deviation).

    Raises :class:`CheckFailed` on the first output that is wrong.
    """
    if op.kind in ("simulate", "sweep", "compare"):
        rc, stderr = outcome
        _require(rc == 0, f"exit code {rc}: {stderr.strip()}")
        {"simulate": _check_simulate, "sweep": _check_sweep, "compare": _check_compare}[op.kind](op)
        h = hashlib.sha256()
        for path in sorted(op_dir.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        return h.digest(), 0.0
    if op.kind == "decompose":
        return _check_decompose(op, outcome), 0.0
    if op.kind == "validate":
        return _check_validate(op, outcome), 0.0
    return _check_oracle(op, outcome)


def _parse(doc: dict):
    from qbattery import cli

    return cli.parse_config(doc)


def _check_rows(rows: np.ndarray, expected: int, where: str) -> None:
    from qbattery import cli

    cols = cli.OUTPUT_COLUMNS
    _require(rows.shape == (expected, len(cols)), f"{where}: shape {rows.shape}, expected ({expected}, {len(cols)})")
    _require(bool(np.all(np.isfinite(rows))), f"{where}: non-finite value")
    m = rows[:, cols.index("m_value")]
    _require(bool(np.all(m >= 1.0 - M_TOL)), f"{where}: m_value {m.min()!r} below 1 - {M_TOL}")
    e_b = rows[:, cols.index("e_b_over_omega0")]
    erg = rows[:, cols.index("ergotropy_b_over_omega0")]
    _require(bool(np.all(erg >= 0.0)), f"{where}: negative ergotropy {erg.min()!r}")
    _require(bool(np.all(erg <= e_b + ERGOTROPY_EXCESS)), f"{where}: ergotropy above e_b")


def _read_artifact(path: Path, fmt: str, expected: int, expected_config) -> None:
    from qbattery import cli

    text = path.read_text(encoding="utf-8")
    if fmt == "csv":
        lines = text.split("\n")
        _require(lines[-1] == "", f"{path.name}: missing final newline")
        _require(tuple(lines[0].split(",")) == cli.OUTPUT_COLUMNS, f"{path.name}: header differs from OUTPUT_COLUMNS")
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:-1]]).reshape(-1, len(cli.OUTPUT_COLUMNS))
    else:
        doc = json.loads(text)
        _require(doc.get("schema") == "qbattery-data-v1", f"{path.name}: schema {doc.get('schema')!r}")
        _require(tuple(doc["columns"]) == cli.OUTPUT_COLUMNS, f"{path.name}: columns differ from OUTPUT_COLUMNS")
        _require(_parse(doc["config"]) == expected_config, f"{path.name}: config echo does not re-parse to the run")
        rows = np.array(doc["rows"], dtype=float).reshape(-1, len(cli.OUTPUT_COLUMNS))
    _check_rows(rows, expected, path.name)


def _manifest(path: Path) -> dict:
    return json.loads(path.with_name(path.name + ".manifest.json").read_text(encoding="utf-8"))


def _check_simulate(op: Op) -> None:
    config = _parse(op.doc)
    path = Path(config.out_path)
    manifest = _manifest(path)
    _require(_parse(manifest["config"]) == config, "manifest config echo does not re-parse to the run")
    _require(manifest["outputs"][0]["rows"] == op.rows, f"manifest rows {manifest['outputs'][0]['rows']} != {op.rows}")
    _read_artifact(path, config.out_format, op.rows, config)


def _check_sweep(op: Op) -> None:
    config = _parse(op.doc)
    base = Path(config.out_path)
    manifest = _manifest(base)
    _require(_parse(manifest["config"]) == config, "sweep manifest config echo does not re-parse to the run")
    values = op.doc["sweep"]["values"]
    _require([r["status"] for r in manifest["runs"]] == ["ok"] * len(values), f"sweep statuses {manifest['runs']}")
    per_point = op.rows // len(values)
    for i, (value, entry) in enumerate(zip(values, manifest["runs"])):
        point_path = base.with_name(f"{base.stem}_{i:02d}{base.suffix}")
        _require(entry["path"] == point_path.name and entry["value"] == value, f"sweep entry {entry}")
        doc = json.loads(json.dumps(op.doc))
        del doc["sweep"]
        doc["output"]["path"] = str(point_path)
        name = op.doc["sweep"]["parameter"]
        if name == "kappa":
            doc["model"]["kappa"] = value
        elif name in ("gamma", "g"):
            doc["model"][name] = value
        else:
            doc["drive"]["f0" if name == "F0" else name] = value
        point_config = _parse(doc)
        _require(_parse(_manifest(point_path)["config"]) == point_config, f"point {i}: config echo does not re-parse to the run")
        _read_artifact(point_path, "csv", per_point, point_config)


def _check_compare(op: Op) -> None:
    config = _parse(op.doc)
    report = json.loads(Path(config.out_path).read_text(encoding="utf-8"))
    _require(report["schema"] == "qbattery-compare-v1", f"schema {report['schema']!r}")
    _require(_parse(report["config"]) == config, "compare config echo does not re-parse to the run")
    maxima = report["max_ergotropy_over_omega0"]
    _require(sorted(maxima) == ["bare", "cd", "static"], f"compare drives {sorted(maxima)}")
    for name, value in maxima.items():
        _require(math.isfinite(value) and value >= 0.0, f"max ergotropy {name} = {value!r}")
        _require(math.isfinite(report["argmax_g_tau"][name]), f"argmax {name} not finite")
    for key, (num, den) in {"cd_over_static": ("cd", "static"), "cd_over_bare": ("cd", "bare")}.items():
        expected = maxima[num] / maxima[den] if maxima[den] > 0 else None
        _require(report["ratios"][key] == expected, f"ratio {key} = {report['ratios'][key]!r}, expected {expected!r}")


def _check_decompose(op: Op, result) -> bytes:
    n = _samples(op.doc)
    _require(len(result.times) == n and len(result.total) == len(result.thermal) == len(result.coherent) == n,
             f"decompose: {len(result.times)} samples, expected {n}")
    total = np.array([[r.e_b, r.ergotropy_b] for r in result.total])
    thermal = np.array([[r.e_b, r.ergotropy_b] for r in result.thermal])
    coherent = np.array([[r.e_b, r.ergotropy_b] for r in result.coherent])
    _require(bool(np.all(np.isfinite(total)) and np.all(np.isfinite(thermal)) and np.all(np.isfinite(coherent))),
             "decompose: non-finite energy")
    e_res = float(np.max(np.abs(total[:, 0] - (thermal[:, 0] + coherent[:, 0]))))
    erg_res = float(np.max(np.abs(total[:, 1] - coherent[:, 1])))
    _require(e_res <= DECOMPOSE_TOL and erg_res <= DECOMPOSE_TOL, f"decompose residuals {e_res:.3e}, {erg_res:.3e}")
    _require(result.max_energy_residual == e_res and result.max_ergotropy_residual == erg_res,
             "decompose: reported residuals differ from the series")
    _require(float(np.max(thermal[:, 1])) <= 1e-9, "decompose: thermal part has ergotropy")
    return hashlib.sha256(total.tobytes() + thermal.tobytes() + coherent.tobytes()).digest()


def _check_validate(op: Op, report) -> bytes:
    d = report.to_dict()
    _require(len(d["fits"]) == 3, f"validate: {len(d['fits'])} fits")
    for fit in d["fits"]:
        for key in ("max_dev_alpha", "max_dev_beta", "max_dev_energy"):
            _require(math.isfinite(fit[key]), f"validate: {fit['interpretation']} {key} not finite")
    # at zero detuning the 'p' reading reproduces alpha (see analytic.py)
    _require(d["status"] == "VERIFIED" and d["best"] == "p", f"validate: status {d['status']}, best {d['best']}")
    return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).digest()


def _check_oracle(op: Op, outcome) -> tuple[bytes, float]:
    times, moments, traj = outcome
    n = _samples(op.doc)
    _require(len(times) == n and len(traj) == n, f"oracle: {len(times)} dense and {len(traj)} moment samples, expected {n}")
    _require(bool(np.allclose(times, traj.times)), "oracle: sample grids differ")
    _require(bool(np.all(np.isfinite(moments))), "oracle: non-finite moment")
    dev = float(np.max(np.abs(moments - traj.moments)))
    _require(dev < ORACLE_TOL, f"oracle: moment deviation {dev:.3e} exceeds {ORACLE_TOL}")
    return hashlib.sha256(moments.tobytes() + traj.moments.tobytes()).digest(), dev
