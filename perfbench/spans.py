"""In-memory span tracer that wraps qbattery's functions from outside the package.

A span is (name, start, end, parent span, op id). Spans are appended to flat
arrays while a traced phase runs, so recording one costs a few appends; self
times, per-parent splits and counts are derived from the arrays once, at the
end. Nothing in ``src/`` knows about the tracer: each target function is
replaced, in every ``qbattery`` module that binds it, by a wrapper, and the
originals are put back by :meth:`Tracer.uninstall`.
"""

import functools
import inspect
import math
import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: (module, attribute) pairs wrapped in a traced run. A dotted attribute is a
#: method looked up on a class of that module.
TARGETS = (
    ("dynamics", "integrate"),
    ("dynamics", "MomentState.validate"),
    ("cd_control", "drive_field"),
    ("energetics", "ergotropy_b"),
    ("energetics", "report_series"),
    ("energetics", "decompose"),
    ("analytic", "validate_against_numerics"),
    ("analytic", "alpha_analytic"),
    ("analytic", "beta_analytic"),
    ("cli", "main"),
    ("cli", "load_config"),
    ("cli", "run_simulate"),
    ("cli", "run_sweep"),
    ("cli", "compare_drives"),
    ("cli", "write_trajectory"),
    ("cli", "trajectory_rows"),
    ("oracle", "dense_evolve"),
    ("oracle", "extract_moments"),
)

LAYERS = ("dynamics", "cd_control", "energetics", "analytic", "cli", "oracle")

OP_SPAN = "bench.op"


def grid_steps(step: float, t_end: float, tau: float) -> int:
    """Steps a fixed-step run takes: the sum over legs of ceil(span/step).

    The run is split at the coupling switch-off ``tau`` when it falls before
    ``t_end``; this mirrors the documented time grid and is computed from the
    inputs only, so it stays fixed when the stepping code changes.
    """
    legs = [t_end] if tau >= t_end else [tau, t_end - tau]
    return sum(max(1, math.ceil(span / step - 1e-12)) for span in legs if span > 0)


def grid_samples(step: float, t_end: float, tau: float, stride: int) -> int:
    """Retained samples of a run: t = 0, every ``stride``-th step, and t_end."""
    n = grid_steps(step, t_end, tau)
    return 1 + n // stride + (1 if n % stride else 0)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, int] = {}
        self.errors = {layer: 0 for layer in LAYERS}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def run_op(self, op_id: int, fn):
        """Call ``fn()`` inside a root span that carries ``op_id``."""
        self.op_id = op_id
        idx = self.open(self._name_id(OP_SPAN))
        try:
            return fn()
        finally:
            self.close(idx)
            self.op_id = -1

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, error_type, counter=None, eager=False):
        layer = name.split(".", 1)[0]
        name_id = self._name_id(name)
        signature = inspect.signature(fn) if counter is not None else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
                if eager:
                    # a generator does its work while being consumed; drain it
                    # inside the span so the span covers that work
                    result = iter(list(result))
            except error_type:
                tracer.errors[layer] += 1
                raise
            finally:
                tracer.close(idx)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(tracer, bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded ``qbattery`` module that binds it."""
        from qbattery.errors import QBatteryError

        modules = [m for n, m in sys.modules.items() if n == "qbattery" or n.startswith("qbattery.")]
        for mod_name, attr in TARGETS:
            mod = sys.modules[f"qbattery.{mod_name}"]
            name = f"{mod_name}.{attr}"
            counter = _COUNTERS.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, QBatteryError, counter))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(
                name, orig, QBatteryError, counter, eager=inspect.isgeneratorfunction(orig)
            )
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds, and per-(parent, name) self seconds."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=float) - np.frombuffer(self.span_start, dtype=float)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        k = len(self.names)
        out = {
            "calls": np.bincount(names, minlength=k),
            "incl_s": np.bincount(names, weights=dur, minlength=k),
            "self_s": np.bincount(names, weights=self_time, minlength=k),
        }
        parent_names = np.where(has_parent, names[np.maximum(parents, 0)], -1)
        pair = {}
        for p, c in set(zip(parent_names.tolist(), names.tolist())):
            mask = (parent_names == p) & (names == c)
            pair[(self.names[p] if p >= 0 else None, self.names[c])] = float(self_time[mask].sum())
        stats = {
            n: {
                "calls": int(out["calls"][i]),
                "incl_s": float(out["incl_s"][i]),
                "self_s": float(out["self_s"][i]),
            }
            for i, n in enumerate(self.names)
        }
        return {"stats": stats, "pair_self_s": pair}

    def write(self, path: Path) -> None:
        """Write every span to ``path`` (numpy .npz: arrays plus the name table)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=float),
            end=np.frombuffer(self.span_end, dtype=float),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )


def _count_integrate(tracer, a, traj):
    tracer.count("dynamics.integrate.steps", grid_steps(a["step"], a["t_end"], a["params"].tau))
    tracer.count("dynamics.integrate.samples", len(traj))


def _count_dense(tracer, a, traj):
    tracer.count("oracle.dense_evolve.steps", grid_steps(a["step"], a["t_end"], a["params"].tau))
    tracer.count("oracle.dense_evolve.samples", len(traj))


def _count_write(tracer, a, n_rows):
    tracer.count("cli.write_trajectory.rows", n_rows)
    tracer.count("cli.write_trajectory.bytes", Path(a["path"]).stat().st_size)


_COUNTERS = {
    "dynamics.integrate": _count_integrate,
    "oracle.dense_evolve": _count_dense,
    "cli.write_trajectory": _count_write,
}
