"""Command-line front end: single runs, sweeps, drive comparisons, self-tests.

Configuration is a single JSON document with all physical fields
dimensionless in omega0 units. Data artifacts are byte-deterministic: fixed
column order, each value as its ``%.16e`` text (17 significant digits, so it
parses back to the same double) in CSV lines (LF endings) and JSON rows alike.
"""

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import energetics
from .cd_control import cd_hamiltonian_closed, drive_harmonics, propagate_unitary
from .dynamics import (MAX_ROWS, MomentState, Run, Trajectory, _unwrap, default_step, integrate, propagate,
                       propagate_batch, run_size)
from .errors import ConfigError, QBatteryError, SingularDenominator
from .model import DriveKind, DriveProfile, ModelParams

__all__ = ["OUTPUT_COLUMNS", "RunConfig", "load_config", "main", "selftest_report"]

OUTPUT_COLUMNS = (
    "t",
    "g_tau",
    *(f"{field.name}_{part}" for field in dataclasses.fields(MomentState) for part in ("re", "im")),
    "e_b_over_omega0",
    "ergotropy_b_over_omega0",
    "e_a_over_omega0",
    "m_value",
)

#: (params, profile) of one sweep point, from the run's and the swept parameter's value
_SWEEP = {
    "kappa": lambda p, d, v: (dataclasses.replace(p, delta_r=p.omega0 * (1.0 - v)), d),
    "gamma": lambda p, d, v: (dataclasses.replace(p, gamma=v), d),
    "F0": lambda p, d, v: (p, dataclasses.replace(d, f0=v)),
    "omega_env": lambda p, d, v: (p, dataclasses.replace(d, omega_env=v)),
    "g": lambda p, d, v: (dataclasses.replace(p, g=v), d),
}
SWEEP_PARAMETERS = tuple(_SWEEP)

#: moment engine behind simulate, sweep and compare, recorded in their manifests
ENGINE = "exact"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_SELFTEST = 3


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    profile: DriveProfile
    step: float
    t_end: float
    sample_stride: int
    sweep_parameter: str | None
    sweep_values: tuple
    out_path: str | None
    out_format: str
    auto_step: bool = False  # step came from dynamics.default_step, not from the config

    def to_dict(self) -> dict:
        """The configuration as given; a defaulted step is left out, so the echo re-resolves it."""
        d = {
            "model": dataclasses.asdict(self.params),
            "drive": {
                "profile": self.profile.kind.value,
                "f0": self.profile.f0,
                "omega_env": self.profile.omega_env,
            },
            "numerics": {
                "step": self.step,
                "t_end": self.t_end,
                "sample_stride": self.sample_stride,
            },
            "output": {"path": self.out_path, "format": self.out_format},
        }
        if self.auto_step:
            del d["numerics"]["step"]
        if self.sweep_parameter is not None:
            d["sweep"] = {"parameter": self.sweep_parameter, "values": list(self.sweep_values)}
        return d


def _section(doc: dict, name: str, keys: tuple) -> dict:
    """The ``name`` section of ``doc``, {} when absent; it must be a JSON object holding only ``keys``."""
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"'{name}' section must be a JSON object, got {section!r}")
    extra = sorted(k for k in section if k not in keys)
    if extra:
        raise ConfigError(f"unknown keys in '{name}' section: {extra}")
    return section


def _finite(v) -> bool:
    """Whether the JSON value ``v`` is a number that is a finite double; an integer too large for one is not."""
    try:
        return not isinstance(v, bool) and isinstance(v, (int, float)) and math.isfinite(v)
    except OverflowError:
        return False


def _number(section: dict, key: str, name: str, default=None) -> float:
    v = section.get(key, default)
    if not _finite(v):
        raise ConfigError(f"'{name}.{key}' must be a finite number, got {v!r}")
    return float(v)


def _check_point(config: RunConfig) -> None:
    """Ask the library whether a run or sweep point can run, building no array: its drive (``drive_harmonics``,
    which refuses a vanishing CD denominator) and its grid (``run_size``, which bounds steps and samples)."""
    try:
        drive_harmonics(config.profile, config.params.delta_r, config.params.gamma)
        run_size(config.step, config.t_end, config.params.tau, config.sample_stride)
    except SingularDenominator as exc:
        raise ConfigError(str(exc)) from exc
    except ValueError as exc:
        raise ConfigError(f"numerics.{exc}") from exc


def parse_config(doc: dict) -> RunConfig:
    """Validate a configuration document and resolve derived fields.

    Model and drive defaults are those of ModelParams.build and DriveProfile, except that tau defaults to t_end.
    """
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    _section({"top-level": doc}, "top-level", ("model", "drive", "numerics", "sweep", "output"))

    num = _section(doc, "numerics", ("step", "t_end", "sample_stride"))
    t_end = _number(num, "t_end", "numerics", 20.0)
    if t_end <= 0:
        raise ConfigError(f"numerics.t_end must be > 0, got {t_end}")
    stride = num.get("sample_stride", 10)
    if not isinstance(stride, int) or isinstance(stride, bool) or stride < 1:
        raise ConfigError(f"numerics.sample_stride must be a positive integer, got {stride!r}")

    mdl = _section(doc, "model", ("omega0", "g", "gamma", "nbar", "kT", "delta_r", "kappa", "tau"))
    try:
        params = ModelParams.build(**{"tau": t_end, **{k: _number(mdl, k, "model") for k in mdl}})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    drv = _section(doc, "drive", ("profile", "f0", "omega_env"))
    profile = DriveProfile(drv.get("profile", "off"), **{k: _number(drv, k, "drive") for k in drv if k != "profile"})

    auto_step = "step" not in num
    step = _number(num, "step", "numerics", default_step(params, profile))

    sweep_parameter = None
    sweep_values: tuple = ()
    if "sweep" in doc:
        swp = _section(doc, "sweep", ("parameter", "values"))
        sweep_parameter = swp.get("parameter")
        if sweep_parameter not in SWEEP_PARAMETERS:
            raise ConfigError(f"sweep.parameter must be one of {SWEEP_PARAMETERS}, got {sweep_parameter!r}")
        values = swp.get("values")
        if not isinstance(values, list) or not values:
            raise ConfigError("sweep.values must be a non-empty list")
        for v in values:
            if not _finite(v):
                raise ConfigError(f"sweep values must be finite numbers, got {v!r}")
        sweep_values = tuple(float(v) for v in values)

    out = _section(doc, "output", ("path", "format"))
    out_format = out.get("format", "csv")
    if out_format not in ("csv", "json"):
        raise ConfigError(f"output.format must be 'csv' or 'json', got {out_format!r}")
    out_path = out.get("path")
    named = isinstance(out_path, str) and "\0" not in out_path and Path(out_path).name not in ("", "..")
    if out_path is not None and not named:
        raise ConfigError(f"output.path must be a string naming a file, got {out_path!r}")

    config = RunConfig(
        params=params,
        profile=profile,
        step=step,
        t_end=t_end,
        sample_stride=stride,
        sweep_parameter=sweep_parameter,
        sweep_values=sweep_values,
        out_path=out_path,
        out_format=out_format,
        auto_step=auto_step,
    )
    _check_point(config)
    # every sweep point is checked here, so a bad one fails before any point writes a file
    for v in sweep_values:
        try:
            _check_point(_apply_sweep_value(config, v))
        except ConfigError as exc:
            raise ConfigError(f"sweep value {sweep_parameter} = {v!r}: {exc}") from exc
    return config


def load_config(path: str) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, an integer past the digit limit, too deep
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

# Rows per formatting pass. In perfbench's dense_analysis loop, _format_values takes 0-165 minor page faults per
# op for CSV (2,001 rows) and 144-177 for JSON (1,501 rows); 128-row passes take 0-17 and 7-8 but gained no time.
_CHUNK_ROWS = 256
_ROW_ENDS = {"csv": (b"\n", b"\n"), "json": (b"],[", b"]]")}  # after each row, after the last row
_K0 = -290  # smallest power of ten in the exact-product table


@functools.cache
def _format_tables() -> tuple:
    """For k in [_K0, 300], rows (hi, lo, hh, hl), 10^k = hi + lo to about 2^-106 and hi = hh + hl Dekker's halves,
    and the least double >= 10^k; words, low byte first, of each exponent, of sign, lead digit and '.', and (32-bit)
    of the 10^4 texts "0000" to "9999"."""
    hi, lo = [], []
    for k in range(_K0, 301):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)  # int / int rounds correctly
        p, q = (num / den).as_integer_ratio()
        hi.append(p / q)
        lo.append((num * q - p * den) / (q * den))
    hi, lo = np.array(hi), np.array(lo)
    hh = hi * 134217729.0 - (hi * 134217729.0 - hi)
    texts = [f"e{k:+03d}" for k in range(_K0, 301)], [f"\0\0\0\0\0{s}{str(d)[0]}." for s in "\0-" for d in range(11)]
    words = (np.array([int.from_bytes(w.encode(), "little") for w in ws], np.uint64) for ws in texts)
    i = np.arange(10**4)
    quads = sum((i // 10**(3 - j) % 10 + ord("0")) << 8 * j for j in range(4)).astype("<u4")
    return np.stack([hi, lo, hh, hi - hh], axis=1), np.where(lo > 0.0, np.nextafter(hi, np.inf), hi), *words, quads


def _format_values(x: np.ndarray, seps: np.ndarray) -> bytes:
    """format(v, ".16e") of each value of ``x``, each followed by its separator: the top 3 bytes of its ``seps`` word.

    The 17 digits are round(|x| 10^(16 - E)) from Dekker's exact product with 10^(16 - E) = hi + lo,
    within about 1e-14; the lead digit and each 4-digit group of the other 16 are read from the tables by index.
    Python formats values within 1e-9 of a tie and nonzero |x| outside [1e-280, 1e280],
    at most 24 bytes, over the first 29 of the 32-byte slot of four words that each text fills with 0s:
    sign, lead, '.'; 8 digits; 8 digits; exponent and, in the top 3 bytes, the separator.
    """
    terms, ceil, exps, leads, quads = _format_tables()
    a = np.abs(x)
    zero, fast = a == 0.0, (a >= 1e-280) & (a <= 1e280)
    a[~fast] = 1.0  # E = 0, the exponent of a zero
    # E of the exact value: the guess is E or E - 1, raised where |x| >= 10^(guess + 1)
    e = np.floor(np.log10(a) - 1e-10).astype(np.int64) - _K0  # table index E - _K0
    e += a >= ceil[e + 1]
    hi, lo, hh, hl = np.take(terms, 16 - 2 * _K0 - e, axis=0).T  # 10^(16 - E)
    c = a * 134217729.0  # Dekker's split: a = ah + al, halves of 26 bits, so their products are exact
    ah = c - (c - a)
    al = a - ah
    p = a * hi
    t = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo
    yh = p + t  # y = |x| 10^(16 - E) in [1e16, 1e17] is yh + yl, yh an integer
    yl = t - (yh - p)
    slow = np.flatnonzero(~(fast | zero) | (np.abs(yl - np.rint(yl)) >= 0.5 - 1e-9))
    n = yh.astype(np.int64) + np.rint(yl).astype(np.int64)
    n[zero] = 0
    e += n == 10**17  # rounded up to 10^17: lead 10, which reads 1
    w = np.empty((len(x), 4), "<u8")
    high = n // 10**16  # n's first digits, 1 then 5, 9, 13 and 17; % and np.divmod cost 5x this division
    w[:, 0] = leads[high + 11 * np.signbit(x)]
    for half, k in enumerate((12, 8, 4, 0), 2):  # each 4-digit group of digits 2-17 to the next 32-bit half word
        low = n // 10**k
        w.view("<u4")[:, half] = quads[low - high * 10**4]
        high = low
    w[:, 3] = exps[e] | seps
    for i in slow:
        w.view(np.uint8)[i, :29] = np.frombuffer(format(float(x[i]), ".16e").encode().ljust(29, b"\0"), np.uint8)
    return w.tobytes().translate(None, b"\0")


def _row_chunks(rows: np.ndarray, fmt: str):
    """The data rows of a ``fmt`` artifact, _CHUNK_ROWS at a time: ``"%.16e"`` of each value, ',' between a row's
    values and a row end after each row, '\\n' in CSV and '],[' in JSON, where the last row ends in ']]'."""
    ends = [int.from_bytes(end.rjust(8, b"\0"), "little") for end in _ROW_ENDS[fmt]]
    seps = np.full((_CHUNK_ROWS, rows.shape[1]), ord(",") << 56, np.uint64)
    seps[:, -1] = ends[0]
    for i in range(0, len(rows), _CHUNK_ROWS):
        x = rows[i:i + _CHUNK_ROWS]
        seps[len(x) - 1, -1] = ends[i + len(x) == len(rows)]  # the chunk's last row ends all rows, or not
        yield _format_values(x.ravel(), seps[:len(x)].ravel())


def trajectory_rows(traj: Trajectory) -> np.ndarray:
    """(n, 22) array of the retained samples' values, in OUTPUT_COLUMNS order."""
    e_b, erg, _, m_value, e_a = energetics.energy_columns(traj.mu, traj.sigma, 1.0, traj.times)
    rows = np.empty((len(traj), len(OUTPUT_COLUMNS)))
    rows[:, 0] = traj.times
    rows[:, 1] = traj.params.g * traj.times
    rows[:, 2:18] = traj.moments.view(float)  # re, im of each moment in turn; na_im and nb_im are +0.0
    rows[:, 18:] = np.column_stack([e_b, erg, e_a, m_value])
    return rows


def write_trajectory(path: Path, traj: Trajectory, fmt: str, config_echo: dict) -> int:
    """Stream one artifact, CSV or JSON: head, _row_chunks, tail; return the row count. Rows are checked first."""
    rows = trajectory_rows(traj)
    if fmt == "csv":
        head, tail = ",".join(OUTPUT_COLUMNS) + "\n", ""
    else:
        doc = {"schema": "qbattery-data-v1", "config": config_echo, "columns": list(OUTPUT_COLUMNS), "rows": []}
        head, _, tail = _json_text(doc).rpartition('"rows":[]')  # the last match: only "schema" sorts after "rows"
        head += '"rows":[[' if len(rows) else '"rows":[]'  # the array's and the first row's brackets
    with path.open("wb") as f:
        f.write(head.encode())
        f.writelines(_row_chunks(rows, fmt))
        f.write(tail.encode())
    return len(rows)


def _json_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(_json_text(doc), encoding="utf-8", newline="\n")


def _manifest_path(out_path: Path) -> Path:
    return out_path.with_name(out_path.name + ".manifest.json")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _run_points(points: list[RunConfig]) -> list:
    """One outcome per point config of ``points``, which share one grid: its Trajectory, or the error its lone run
    raises, from one :func:`dynamics.propagate_batch`; a simulate is the batch of one."""
    head = points[0]
    return propagate_batch([Run(p.params, p.profile) for p in points], head.step, head.t_end, head.sample_stride)


def run_simulate(config: RunConfig) -> Path:
    if config.out_path is None:
        raise ConfigError("simulate requires output.path")
    (traj,) = _run_points([config])
    return _write_run(config, _unwrap(traj))


def _write_run(config: RunConfig, traj: Trajectory) -> Path:
    """Write the data artifact and the manifest of one simulate run of ``config``; return the artifact's path."""
    out_path = Path(config.out_path)
    echo = config.to_dict()
    n_rows = write_trajectory(out_path, traj, config.out_format, echo)
    manifest = {
        "schema": "qbattery-manifest-v1",
        "command": "simulate",
        "engine": ENGINE,
        "config": echo,
        "columns": list(OUTPUT_COLUMNS),
        "outputs": [{"path": out_path.name, "rows": n_rows, "format": config.out_format}],
    }
    _write_json(_manifest_path(out_path), manifest)
    return out_path


def _apply_sweep_value(config: RunConfig, value: float) -> RunConfig:
    p, d = _SWEEP[config.sweep_parameter](config.params, config.profile, value)
    # a defaulted step is resolved per point and pinned, so each point's echo carries it
    step = default_step(p, d) if config.auto_step else config.step
    return dataclasses.replace(
        config, params=p, profile=d, step=step, auto_step=False, sweep_parameter=None, sweep_values=()
    )


def _batches(points: list):
    """The (value, config) ``points`` in order, cut into runs of consecutive points on one grid, each keeping at
    most MAX_ROWS samples in all, so a batch peaks at the memory of one run at the budget."""
    batch, grid, rows = [], None, 0
    for value, point in points:
        point_grid = (point.step, point.t_end, point.params.tau, point.sample_stride)
        n = run_size(*point_grid)[1]
        if batch and (point_grid != grid or rows + n > MAX_ROWS):
            yield batch
            batch, rows = [], 0
        batch.append((value, point))
        grid, rows = point_grid, rows + n
    if batch:
        yield batch


def run_sweep(config: RunConfig) -> tuple[Path, list]:
    """Run one simulate per sweep value; returns (manifest path, the manifest entries of the points that failed).

    Consecutive points that share a grid run as one batch (:func:`_run_points`); each point's files
    are written, in point order, as :func:`run_simulate` writes them.
    """
    if config.sweep_parameter is None:
        raise ConfigError("sweep requires a 'sweep' section in the config")
    if config.out_path is None:
        raise ConfigError("sweep requires output.path")
    base = Path(config.out_path)
    points = [(value, dataclasses.replace(_apply_sweep_value(config, value),
                                          out_path=str(base.with_name(f"{base.stem}_{i:02d}{base.suffix}"))))
              for i, value in enumerate(config.sweep_values)]
    runs = []
    for batch in _batches(points):
        for (value, point), traj in zip(batch, _run_points([point for _, point in batch])):
            entry = {"value": value, "path": Path(point.out_path).name, "status": "ok"}
            try:
                _write_run(point, _unwrap(traj))
            except QBatteryError as exc:
                entry["status"] = "error"
                entry["error"] = str(exc)
                entry["error_type"] = type(exc).__name__
            runs.append(entry)
    manifest = {
        "schema": "qbattery-sweep-v1",
        "command": "sweep",
        "engine": ENGINE,
        "config": config.to_dict(),
        "parameter": config.sweep_parameter,
        "columns": list(OUTPUT_COLUMNS),
        "runs": runs,
    }
    manifest_path = _manifest_path(base)
    _write_json(manifest_path, manifest)
    return manifest_path, [run for run in runs if run["status"] == "error"]


def compare_drives(config: RunConfig) -> dict:
    """Max ergotropy of the CD drive against its bare-envelope and static partners, run as one batch."""
    if config.profile.kind is not DriveKind.CD_SIN_SQ:
        raise ConfigError("compare requires a cd_sin_sq drive profile")
    partners = {
        "cd": config.profile,
        "bare": DriveProfile.sin_sq(config.profile.f0, config.profile.omega_env),
        "static": DriveProfile.static(config.profile.f0),
    }
    maxima, argmax = {}, {}
    for name, run in zip(partners, _run_points([dataclasses.replace(config, profile=p) for p in partners.values()])):
        traj = _unwrap(run)
        series = energetics.energy_columns(traj.mu, traj.sigma, 1.0, traj.times)[1]  # the ergotropy over omega0
        k = int(np.argmax(series))
        maxima[name] = float(series[k])
        argmax[name] = float(config.params.g * traj.times[k])

    def ratio(num: float, den: float):
        return num / den if den > 0.0 else None

    return {
        "schema": "qbattery-compare-v1",
        "config": config.to_dict(),
        "max_ergotropy_over_omega0": maxima,
        "argmax_g_tau": argmax,
        "ratios": {
            "cd_over_static": ratio(maxima["cd"], maxima["static"]),
            "cd_over_bare": ratio(maxima["cd"], maxima["bare"]),
        },
    }


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def close_check(name: str, deviation: float, tol: float, **extra) -> dict:
    """Named pass/fail record for a scalar deviation against a tolerance."""
    status = "pass" if deviation <= tol else "fail"
    return {"name": name, "status": status, "deviation": deviation, "tolerance": tol, **extra}


def _selftest_oracle_check() -> list:
    from . import oracle  # selftest only: kept out of the CLI's import
    points = [
        (
            "moments_vs_oracle_cd_drive",
            ModelParams(omega0=1.0, g=0.2, gamma=1.0, nbar=0.2, delta_r=0.0, tau=4.0),
            DriveProfile.cd_sin_sq(0.2, 0.5),
        ),
        (
            "moments_vs_oracle_static_drive",
            ModelParams(omega0=1.0, g=0.3, gamma=0.05, nbar=0.1, delta_r=0.0, tau=4.0),
            DriveProfile.static(0.1),
        ),
    ]
    out = []
    for name, params, profile in points:
        start = time.perf_counter()
        dense = oracle.dense_evolve(
            params, profile, cutoffs=(12, 12), step=0.01, t_end=4.0, sample_stride=100
        )
        m_dense = np.array([oracle.extract_moments(s).as_array() for s in dense.states])
        # the RK4 cross-check and the CLI's exact engine against the same dense run
        devs = {
            engine.__name__: float(np.max(np.abs(m_dense - engine(params, profile, 0.004, 4.0, 250).moments)))
            for engine in (integrate, propagate)
        }
        out.append(close_check(
            name, max(devs.values()), 1e-6, deviations=devs, max_leak=dense.max_leak,
            max_trace_drift=dense.max_trace_drift, seconds=time.perf_counter() - start,
        ))
    return out


def _selftest_decomposition_check() -> list:
    params = ModelParams(omega0=1.0, g=0.2, gamma=1.0, nbar=0.5, delta_r=0.0, tau=10.0)
    profile = DriveProfile.cd_sin_sq(0.3, 0.5)
    result = energetics.decompose(params, profile, step=0.005, t_end=10.0, sample_stride=10)
    thermal_erg = max(r.ergotropy_b for r in result.thermal)
    return [
        close_check("decomposition_energy_additivity", result.max_energy_residual, 1e-6),
        close_check("decomposition_ergotropy_coherent", result.max_ergotropy_residual, 1e-6),
        close_check("decomposition_thermal_ergotropy_zero", thermal_erg, 1e-9),
    ]


def _selftest_transitionless_check() -> list:
    delta, lam0, t_total, n = 0.5, 8.0, 2.0, 2001
    ts = np.linspace(0.0, t_total, n)
    lam, d = lam0 * np.cos(np.pi * ts / t_total), np.full(n, delta)
    h0 = 0.5 * np.moveaxis(np.array([[lam, d], [d, -lam]], dtype=complex), -1, 0)
    ground = np.linalg.eigh(h0)[1][:, :, 0]

    def min_overlap(h):
        psi = propagate_unitary(ts, h, ground[0])
        return min(abs(np.vdot(ground[k], psi[k])) ** 2 for k in range(0, n, 20))

    bare = min_overlap(h0)
    driven = min_overlap(h0 + cd_hamiltonian_closed(ts, h0))
    return [
        close_check("transitionless_cd_overlap", 1.0 - driven, 1e-4, overlap=driven),
        close_check(
            "transitionless_bare_drops",
            0.0 if bare < 0.9 else 1.0,
            0.5,
            bare_overlap=bare,
        ),
    ]


def _selftest_analytic_check() -> list:
    from . import analytic  # selftest only: kept out of the CLI's import
    params = ModelParams(omega0=1.0, g=0.2, gamma=0.05, nbar=0.0, delta_r=0.0, tau=10.0)
    profile = DriveProfile.cd_sin_sq(0.05, 0.5)
    report = analytic.validate_against_numerics(params, profile, t_end=10.0)
    status = "pass" if report.status == "VERIFIED" else "warn"
    return [{"name": "analytic_closed_form", "status": status, "report": report.to_dict()}]


def selftest_report() -> dict:
    """Run the cross-validation suite and return a JSON-ready report; a group that raises is one failed check."""
    checks = []
    for run in (
        _selftest_oracle_check,
        _selftest_decomposition_check,
        _selftest_transitionless_check,
        _selftest_analytic_check,
    ):
        start = time.perf_counter()
        try:
            group = run()
        except QBatteryError as exc:
            group = [{"name": run.__name__.removeprefix("_selftest_"), "status": "fail",
                      "error": f"{type(exc).__name__}: {exc}"}]
        # checks that read one shared computation each carry its wall time
        for check in group:
            check.setdefault("seconds", time.perf_counter() - start)
        checks += group
    failed = [c["name"] for c in checks if c["status"] == "fail"]
    status = "fail" if failed else "pass"
    return {"schema": "qbattery-selftest-v1", "status": status, "checks": checks}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qbattery",
        description="Open quantum battery charging simulator (dimensionless omega0 units).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "run one trajectory and write the data artifact"),
        ("sweep", "run one trajectory per sweep value plus a manifest"),
        ("compare", "CD drive vs bare envelope vs static drive gain report"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON configuration")
    p = sub.add_parser("selftest", help="run the cross-validation suite")
    p.add_argument("--json", help="write the JSON report to this path")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help text or the usage error
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        if args.command == "selftest":
            report = selftest_report()
            for check in report["checks"]:
                print(f"{check['name']}: {check['status'].upper()}")
            if args.json:
                _write_json(Path(args.json), report)
            print(f"selftest: {report['status'].upper()}")
            return EXIT_OK if report["status"] == "pass" else EXIT_SELFTEST

        config = load_config(args.config)
        if args.command == "simulate":
            out = run_simulate(config)
            print(f"wrote {out}")
            return EXIT_OK
        if args.command == "sweep":
            manifest, failed = run_sweep(config)
            print(f"wrote {manifest}")
            if not failed:
                return EXIT_OK
            raise QBatteryError(f"sweep: {len(failed)} of {len(config.sweep_values)} points failed; first "
                                f"{config.sweep_parameter} = {failed[0]['value']!r}: {failed[0]['error']}")
        if args.command == "compare":
            report = compare_drives(config)
            if config.out_path is not None:
                _write_json(Path(config.out_path), report)
                print(f"wrote {config.out_path}")
            else:
                print(json.dumps(report, sort_keys=True, indent=2))
            return EXIT_OK
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QBatteryError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
