"""qbattery benchmark: one workload per process, closed loop, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload figure_cli --seed 1 --seconds 30 --trace 0

The client calls qbattery's public entry points on inputs generated from
``--seed``, waits for each call (no think time), checks every output and
stops on the first cycle boundary after ``--seconds``. With ``--trace 0`` the
last stdout line reports the end-to-end metrics; with ``--trace 1`` a traced
phase wraps the package's functions and the last line reports per-layer self
times and counts. See WORKLOADS.md for the workloads and what each metric
should move.
"""

import os

# single-threaded numerics; set before numpy loads its BLAS
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: fresh interpreters started to measure setup_s; the median is reported
SETUP_REPEATS = 11
#: a run stops mid-cycle once it has used this many times --seconds
OVERRUN = 3.0
#: failures whose messages are kept in the run record
KEEP_ERRORS = 5

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "sim_time_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_FUNCS = (
    "dynamics.integrate", "dynamics.MomentState.validate", "cd_control.drive_field",
    "energetics.ergotropy_b", "energetics.report_series", "energetics.decompose",
    "analytic.validate_against_numerics", "analytic.alpha_analytic", "analytic.beta_analytic",
    "cli.main", "cli.load_config", "cli.write_trajectory", "cli.trajectory_rows",
    "oracle.dense_evolve", "oracle.extract_moments",
)
PER_LAYER = {f"{f}.s": "s" for f in _FUNCS}
PER_LAYER.update({f"{f}.calls": "count" for f in _FUNCS})
PER_LAYER.update({
    "dynamics.integrate.incl_s": "s",
    "dynamics.integrate.steps": "count",
    "dynamics.integrate.samples": "count",
    "dynamics.integrate.us_per_step": "us",
    "cd_control.drive_field.share_of_integrate": "ratio",
    "cli.write_trajectory.rows": "count",
    "cli.write_trajectory.bytes": "bytes",
    "oracle.dense_evolve.steps": "count",
    "oracle.dense_evolve.action_us_derived": "us",
    "oracle.max_dev": "1",
    "trace.ops": "count",
    "trace.spans": "count",
    "trace.op_p50_traced_s": "s",
    "trace.op_p50_untraced_s": "s",
    "trace.overhead": "ratio",
})
PER_LAYER.update({f"{layer}.errors": "count" for layer in ("dynamics", "cd_control", "energetics", "analytic", "cli", "oracle")})


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, default=None, help="run exactly this many ops instead of --seconds")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qbattery").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _run_record(args, input_digest: str) -> dict:
    import numpy as np

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "nproc_usable": affinity,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_ENV},
        "input_digest": input_digest,
        "loop": "closed, one client, no think time",
    }


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def _setup_seconds(config_path: Path) -> list[float]:
    """Wall time of fresh interpreters that import qbattery.cli and load one input."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import qbattery.cli as c; c.load_config(sys.argv[2])"
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: waiting with one polls in steps of up to 50 ms, which would show in the times
        subprocess.run([sys.executable, "-c", code, str(SRC), str(config_path)], cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


class Loop:
    """Closed-loop client: runs ops one after another and checks each."""

    def __init__(self, workload, seed: int):
        self.workload, self.seed = workload, seed
        self.op_dir = ROOT / workload.op_dir
        self.reference: dict[int, bytes] = {}  # op index -> digest of its outputs
        self.times: list[float] = []
        self.ops: list = []
        self.failed = 0
        self.errors: list[str] = []
        self.max_dev = 0.0

    def run_one(self, index: int, call=None) -> None:
        import workloads

        op = self.workload.op(self.seed, index)
        config_path = workloads.prepare(op, self.op_dir)
        t0 = time.perf_counter()
        try:
            outcome = call(lambda: workloads.run(op, config_path)) if call else workloads.run(op, config_path)
            elapsed = time.perf_counter() - t0
            digest, dev = workloads.check(op, outcome, self.op_dir)
            if self.reference.setdefault(index, digest) != digest:
                raise workloads.CheckFailed(f"op {index} repeated gave different outputs")
            self.max_dev = max(self.max_dev, dev)
        except Exception as exc:  # noqa: BLE001 - every failure is counted, none stops the run
            elapsed = time.perf_counter() - t0
            self.failed += 1
            if len(self.errors) < KEEP_ERRORS:
                self.errors.append(f"op {index} ({op.kind}): {type(exc).__name__}: {exc}")
        self.times.append(elapsed)
        self.ops.append(op)

    def run_for(self, seconds: float, max_ops: int | None, call=None) -> None:
        """Run ops 0, 1, ... until a cycle ends after ``seconds``, or ``max_ops`` ops if given."""
        cycle = len(self.workload.slots)
        t0 = time.perf_counter()
        i = 0
        while True:
            if max_ops is not None and i >= max_ops:
                break
            elapsed = time.perf_counter() - t0
            if max_ops is None and elapsed >= seconds and (i % cycle == 0 or elapsed >= OVERRUN * seconds):
                break
            self.run_one(i, call)
            i += 1


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _tail(times: list[float]) -> dict | None:
    """Highest percentile with at least ten ops beyond it, or None if too few ops."""
    n = len(times)
    if n < 20:
        return None
    ordered = sorted(times)
    return {"value": ordered[n - 11], "percentile": 100 * (n - 10) // n, "ops": n}


def _untraced(args, workload, loop: Loop, first_config: Path) -> tuple[dict, dict]:
    setup = _setup_seconds(first_config)
    loop.run_for(args.seconds, args.ops)
    op_wall = sum(loop.times)
    sim_time = sum(op.sim_time for op in loop.ops)
    rows = sum(op.rows for op in loop.ops)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": _median(setup),
        "op_p50_s": _median(loop.times),
        "sim_time_per_s": sim_time / op_wall,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    detail = {
        "samples": {"setup_s": len(setup), "op_p50_s": len(loop.times), "sim_time_per_s": len(loop.times)},
        "setup_s_all": setup,
        "op_s_all": loop.times,
        "op_tail_s": _tail(loop.times),
        "rows_per_s": rows / op_wall if rows else None,
        "failed_ratio": loop.failed / max(1, len(loop.times)),
        "op_wall_s": op_wall,
        "sim_time": sim_time,
        "rows": rows,
        "oracle_max_dev": loop.max_dev,
    }
    return metrics, detail


def _traced(args, workload, loop: Loop) -> tuple[dict, dict]:
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        loop.run_for(args.seconds / 2, args.ops, call=lambda fn: tracer.run_op(len(loop.times), fn))
    finally:
        tracer.uninstall()
    traced_times, n_traced = list(loop.times), len(loop.times)
    # replay exactly the traced ops untraced, for the tracing overhead
    replay = Loop(workload, args.seed)
    replay.reference = loop.reference
    replay.run_for(0.0, n_traced)
    loop.failed += replay.failed
    loop.errors += replay.errors

    summary = tracer.summary()
    stats = summary["stats"]

    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    metrics = {}
    for name in _FUNCS:
        metrics[f"{name}.s"] = stat(name, "self_s")
        metrics[f"{name}.calls"] = stat(name, "calls")
    steps = tracer.counts.get("dynamics.integrate.steps", 0)
    dense_steps = tracer.counts.get("oracle.dense_evolve.steps", 0)
    integrate_incl = stat("dynamics.integrate", "incl_s")
    p50_traced, p50_untraced = _median(traced_times), _median(replay.times)
    metrics.update({
        "dynamics.integrate.incl_s": integrate_incl,
        "dynamics.integrate.steps": steps,
        "dynamics.integrate.samples": tracer.counts.get("dynamics.integrate.samples", 0),
        "dynamics.integrate.us_per_step": 1e6 * stat("dynamics.integrate", "self_s") / steps if steps else 0.0,
        "cd_control.drive_field.share_of_integrate": (
            summary["pair_self_s"].get(("dynamics.integrate", "cd_control.drive_field"), 0.0) / integrate_incl
            if integrate_incl else 0.0
        ),
        "cli.write_trajectory.rows": tracer.counts.get("cli.write_trajectory.rows", 0),
        "cli.write_trajectory.bytes": tracer.counts.get("cli.write_trajectory.bytes", 0),
        "oracle.dense_evolve.steps": dense_steps,
        "oracle.dense_evolve.action_us_derived": (
            1e6 * stat("oracle.dense_evolve", "self_s") / (4 * dense_steps) if dense_steps else 0.0
        ),
        "oracle.max_dev": loop.max_dev,
        "trace.ops": n_traced,
        "trace.spans": len(tracer.span_name),
        "trace.op_p50_traced_s": p50_traced,
        "trace.op_p50_untraced_s": p50_untraced,
        "trace.overhead": p50_traced / p50_untraced if p50_untraced else 0.0,
    })
    metrics.update({f"{layer}.errors": n for layer, n in tracer.errors.items()})
    trace_path = OUT / f"trace-{workload.name}.npz"
    tracer.write(trace_path)
    detail = {
        "bases": {
            "dynamics.integrate.us_per_step": "dynamics.integrate.s / dynamics.integrate.steps",
            "cd_control.drive_field.share_of_integrate": "drive_field self time under integrate / dynamics.integrate.incl_s",
            "oracle.dense_evolve.action_us_derived": "oracle.dense_evolve.s / (4 * oracle.dense_evolve.steps), derived",
            "trace.overhead": "trace.op_p50_traced_s / trace.op_p50_untraced_s over the same ops",
        },
        "per_name": stats,
        "counts": tracer.counts,
        "spans_file": str(trace_path.relative_to(ROOT)),
        "untraced_replay_ops": len(replay.times),
    }
    return metrics, detail


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "qbattery" / "__init__.py").is_file():
        _fail(f"no qbattery sources under {SRC}; run from a full checkout")
    if args.seconds <= 0 or (args.ops is not None and args.ops < 1):
        _fail("--seconds and --ops must be positive")
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))

    import qbattery.cli  # noqa: F401 - loaded before timing, as every op needs it
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    work_dir = ROOT / workloads.WORK_DIR / workload.name
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        record = _run_record(args, workload.digest(args.seed))
        loop = Loop(workload, args.seed)
        # warm-up: op 0 once, untimed, so lazy set-up finishes before timing;
        # its outputs are the reference the timed rerun of op 0 must match
        loop.run_one(0)
        warm_failed, warm_errors = loop.failed, list(loop.errors)
        loop.times, loop.ops, loop.failed = [], [], 0
        if args.trace:
            metrics, detail = _traced(args, workload, loop)
            units = PER_LAYER
        else:
            first_config = workloads.prepare(workload.op(args.seed, 0), work_dir / "first")
            metrics, detail = _untraced(args, workload, loop, first_config)
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = 1 + len(loop.times) + detail.get("untraced_replay_ops", 0)
    failed = warm_failed + loop.failed
    record.update(detail)
    record["errors"] = warm_errors + loop.errors
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str) + "\n", encoding="utf-8"
    )
    for name, value in metrics.items():
        n = record.get("samples", {}).get(name)
        print(f"{name} = {value:.6g} {units[name]}" + (f" (n={n})" if n else ""))
    for err in record["errors"]:
        print(f"error: {err}")
    print(json.dumps(record, sort_keys=True, default=str))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
