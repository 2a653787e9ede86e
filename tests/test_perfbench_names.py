"""The names the benchmark in ``perfbench/`` reaches into keep resolving.

perfbench wraps every (module, attribute) of ``perfbench/spans.py`` ``TARGETS``
from outside the package, methods through their class ``__dict__``, and reads
the oracle's moments as ``oracle.extract_moments(state).as_array()``. Its
workloads also read fields of a trajectory and of a decomposition. Moving
or renaming one of these breaks traced benchmark runs and perfbench's own
selftest, so it fails here first. So does a renamed parameter that a counter
of ``_COUNTERS`` reads from its target's bound arguments.
"""

import ast
import importlib
import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np

from qbattery import energetics, oracle
from qbattery.dynamics import MomentState, integrate
from qbattery.model import DriveProfile, ModelParams

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def trace_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_every_trace_target_resolves():
    missing = []
    for module, attr in trace_targets():
        mod = importlib.import_module(f"qbattery.{module}")
        cls_name, _, method = attr.rpartition(".")
        owner = vars(getattr(mod, cls_name)) if cls_name else vars(mod)
        if not callable(owner.get(method)):
            missing.append(f"{module}.{attr}")
    assert missing == []


def counter_keys():
    """{target: the ``a["..."]`` keys its counter reads}, for each entry of spans.py ``_COUNTERS``, parsed, not run."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    (table,) = (node.value for node in tree.body
                if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["_COUNTERS"])
    keys = {}
    for target, counter in zip(table.keys, table.values):
        fn = functions[counter.id]
        bound = fn.args.args[1].arg  # counter(tracer, bound arguments, result)
        keys[target.value] = {node.slice.value for node in ast.walk(fn) if isinstance(node, ast.Subscript)
                              and isinstance(node.value, ast.Name) and node.value.id == bound}
    return keys


def test_counters_read_parameters_of_their_targets():
    keys = counter_keys()
    assert "cli.write_trajectory" in keys  # binds a["path"] for the artifact's size
    for target, read in keys.items():
        module, attr = target.split(".")
        parameters = inspect.signature(getattr(importlib.import_module(f"qbattery.{module}"), attr)).parameters
        assert read and read <= set(parameters), (target, read - set(parameters))


def test_extract_moments_returns_a_moment_state():
    p = ModelParams(omega0=1.0, g=0.2, gamma=0.3, nbar=0.0, delta_r=0.0, tau=1.0)
    dense = oracle.dense_evolve(p, DriveProfile.static(0.2), cutoffs=(6, 6), step=0.01, t_end=0.02, sample_stride=1)
    state = oracle.extract_moments(dense.states[-1])
    assert isinstance(state, MomentState)
    assert state.as_array().shape == (8,) and np.all(np.isfinite(state.as_array()))


def test_result_fields_the_workloads_read():
    # the oracle workload compares traj.moments row by row on traj.times; the decompose check
    # reads e_b and ergotropy_b of every sample of the three series and the two residuals
    p = ModelParams(omega0=1.0, g=0.2, gamma=0.3, nbar=0.1, delta_r=0.0, tau=1.0)
    traj = integrate(p, DriveProfile.static(0.2), 0.01, 0.05, sample_stride=1)
    assert traj.moments.shape == (len(traj), 8) and traj.moments.dtype == complex
    assert traj.times.shape == (len(traj),)
    res = energetics.decompose(p, DriveProfile.cd_sin_sq(0.2, 0.5), 0.01, 0.05, 1)
    for series in (res.total, res.thermal, res.coherent):
        assert len(series) == len(res.times)
        assert all(math.isfinite(r.e_b) and math.isfinite(r.ergotropy_b) for r in series)
    assert math.isfinite(res.max_energy_residual) and math.isfinite(res.max_ergotropy_residual)
