"""Self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

For each workload it makes two traced runs with the same seed and a fixed
number of ops, and one with another seed. The two same-seed runs must report
identical counts (every ``.calls``, ``.steps``, ``.samples``, ``.rows`` and
``.bytes`` metric) and the same input digest; the other seed must change the
digest. It also checks that BENCHMARK.json names exactly the workloads and
metrics run.py reports. Exits 0 when every check holds.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

#: ops per self-test run: one whole cycle, one oracle op
OPS = {"figure_cli": 7, "dense_analysis": 5, "oracle_crosscheck": 1}
COUNT_SUFFIXES = (".calls", ".steps", ".samples", ".rows", ".bytes", ".errors", "trace.ops")


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    """(run record, result) of one traced run with a fixed op count."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", "1", "--trace", "1", "--ops", str(OPS[workload]),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().split("\n")
    return json.loads(lines[-2]), json.loads(lines[-1])


def counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if k.endswith(COUNT_SUFFIXES)}


def main() -> int:
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != run.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")

    for name in workloads.WORKLOADS:
        rec_a, res_a = traced_run(name, 1)
        rec_b, res_b = traced_run(name, 1)
        rec_c, _ = traced_run(name, 2)
        for rec, res in ((rec_a, res_a), (rec_b, res_b)):
            if not res["correct"]:
                problems.append(f"{name}: run not correct: {rec.get('errors')}")
        if counts(res_a) != counts(res_b):
            diff = {k: (v, counts(res_b)[k]) for k, v in counts(res_a).items() if counts(res_b)[k] != v}
            problems.append(f"{name}: same seed, different counts {diff}")
        if rec_a["input_digest"] != rec_b["input_digest"]:
            problems.append(f"{name}: same seed, different input digests")
        if rec_a["input_digest"] == rec_c["input_digest"]:
            problems.append(f"{name}: seeds 1 and 2 gave the same input digest")
        print(f"{name}: {len(counts(res_a))} counts repeat, digest {rec_a['input_digest'][:12]} (seed 2: {rec_c['input_digest'][:12]})")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
