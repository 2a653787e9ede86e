"""Config fuzz: every document gives a valid run or one typed error line, never a traceback.

Documents are built from malformed pieces (non-object sections and top
levels, wrong types, integers past a double, NaN and Infinity, extreme
finite doubles, unknown keys) and from run sizes at the MAX_ROWS edge.
Documents that run stay at t_end <= 2 and sample_stride >= 10; the ones at
the size edge are only parsed.
"""

import contextlib
import copy
import dataclasses
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbattery.cli import MAX_ROWS, SWEEP_PARAMETERS, _apply_sweep_value, main, parse_config
from qbattery.errors import ConfigError

WRONG = [
    "x", [], [1.0], {}, True, False, None, 10**400, math.nan, math.inf, -math.inf,
    0.0, -0.0, -1.0, 5e-324, 1e-308, 1e-300, 1e300, 1e308, -1e308, 1.7976931348623157e308,
]
NICE = {
    "model": {
        "omega0": [1.0, 0.5, 2.0], "g": [0.0, 0.2, 1.0], "gamma": [0.0, 0.05, 1.0], "nbar": [0.0, 0.3],
        "kT": [0.0, 0.5], "delta_r": [0.0, 0.5], "kappa": [1.0, 0.5, 10.0], "tau": [0.5, 1.0, 2.0],
    },
    "drive": {"profile": ["off", "static", "sin_sq", "cd_sin_sq"], "f0": [0.0, 0.2], "omega_env": [0.5, 2.0]},
    "numerics": {"step": [0.01, 0.05, 0.1], "sample_stride": [10, 25, 1000]},
    "sweep": {"parameter": list(SWEEP_PARAMETERS)},
    "output": {"path": ["out.csv", "out.json", "missing/out.csv", "/", "..", "a\0b.csv"], "format": ["csv", "json"]},
}
#: where a malformed value goes: the whole document, a section, or a key of one ("flux" is no key)
PLACES = [(), ("flux",), *((s,) for s in NICE), *((s, k) for s in NICE for k in [*NICE[s], "flux"]),
          ("numerics", "t_end"), ("sweep", "values"), ("sweep", "values", 0)]
PREFIXES = ("config error: ", "runtime error: ", "io error: ")


def _keys(name, **required):
    """A section with an optional subset of its keys, each at a value that runs."""
    return st.fixed_dictionaries(
        {k: st.sampled_from(v) for k, v in required.items()},
        optional={k: st.sampled_from(v) for k, v in NICE[name].items() if k not in required},
    )


@st.composite
def commands(draw):
    """(command, document): a document that runs, at t_end <= 2 and sample_stride >= 10, and mostly one that
    suits the command, with up to two malformed pieces put in."""
    command = draw(st.sampled_from(["simulate", "sweep", "compare"]))
    model = draw(_keys("model", gamma=[0.05, 1.0]) if command == "compare" else _keys("model"))
    model.pop(draw(st.sampled_from(["nbar", "kT"])), None)  # give one of each pair at most
    model.pop(draw(st.sampled_from(["delta_r", "kappa"])), None)
    cd = {"profile": ["cd_sin_sq"], "omega_env": NICE["drive"]["omega_env"]} if command == "compare" else {}
    doc = {
        "model": model,
        "drive": draw(_keys("drive", **cd)),
        "numerics": draw(_keys("numerics", t_end=[0.5, 1.0, 2.0])),  # the default t_end of 20 is past this size
        "output": draw(_keys("output", path=NICE["output"]["path"])),
    }
    if command == "sweep" or draw(st.booleans()):
        doc["sweep"] = {"parameter": draw(st.sampled_from(SWEEP_PARAMETERS)),
                        "values": draw(st.lists(st.sampled_from([0.2, 0.5, 1.0, 2.0]), min_size=1, max_size=3))}
    for _ in range(draw(st.integers(0, 2))):
        # a copy, so that inserting into a drawn sweep.values list never changes WRONG's own lists
        place, value = draw(st.sampled_from(PLACES)), copy.deepcopy(draw(st.sampled_from(WRONG)))
        if not place:
            return command, value
        if len(place) == 1:
            doc[place[0]] = value if place[0] != "flux" else 1.0
            continue
        section = doc.setdefault(place[0], {})
        if isinstance(section, dict) and len(place) == 3 and isinstance(section.get("values"), list):
            section["values"].insert(0, value)
        elif isinstance(section, dict):
            section[place[1]] = value
    return command, doc


def _run(tmp: Path, command: str, doc) -> tuple[int, str]:
    """Exit code and stderr of ``main`` on ``doc``; a warning counts as one more stderr line, as in a process."""
    config = tmp / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main([command, "--config", str(config)])
    return code, err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)


def _finite_json(text: str):
    def reject(token):
        raise AssertionError(f"non-finite {token} in an artifact")
    return json.loads(text, parse_constant=reject)


def _check_outputs(tmp: Path, command: str, doc) -> None:
    """Each artifact is finite and each echoed config re-parses to the run's RunConfig."""
    config = parse_config(doc)
    for path in tmp.iterdir():
        if path.name == "config.json":
            continue
        if command == "compare" or path.name.endswith(".manifest.json"):
            _finite_json(path.read_text())
        elif config.out_format == "json":
            assert np.isfinite(_finite_json(path.read_text())["rows"]).all()
        else:
            assert np.isfinite(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)).all()
    if command == "compare":
        if config.out_path is not None:
            assert parse_config(_finite_json(Path(config.out_path).read_text())["config"]) == config
        return
    manifest = _finite_json(Path(config.out_path + ".manifest.json").read_text())
    assert parse_config(manifest["config"]) == config
    for run in manifest.get("runs", []):
        point_path = Path(config.out_path).with_name(run["path"])
        point = dataclasses.replace(_apply_sweep_value(config, run["value"]), out_path=str(point_path))
        echo = _finite_json(point_path.with_name(run["path"] + ".manifest.json").read_text())["config"]
        assert parse_config(echo) == point


#: the fig3 model at static F0 1.7e308 and step 1, whose leg generator is past 2^1023: no draw pairs such an F0 and step
OVERSIZED = {
    "model": {"omega0": 1.0, "g": 0.2, "gamma": 0.05, "nbar": 0.0, "kappa": 1.0, "tau": 20.0},
    "drive": {"profile": "static", "f0": 1.7e308},
    "numerics": {"step": 1, "t_end": 20.0, "sample_stride": 10},
    "output": {"path": "out.csv", "format": "csv"},
}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(commands())
@example(("simulate", OVERSIZED))
def test_any_document_runs_or_fails_with_one_typed_line(tmp_path_factory, command_doc):
    command, doc = command_doc
    tmp = tmp_path_factory.mktemp("fuzz")
    if isinstance(doc, dict) and isinstance(doc.get("output"), dict) and isinstance(doc["output"].get("path"), str):
        doc["output"]["path"] = str(tmp / doc["output"]["path"])
    code, err = _run(tmp, command, doc)
    assert code in (0, 1, 2), (code, err)
    if code == 1:
        assert sorted(p.name for p in tmp.iterdir()) == ["config.json"]
    if code:
        assert err.count("\n") == 1 and err.startswith(PREFIXES), err
    else:
        assert not err, err
        _check_outputs(tmp, command, doc)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    rows=st.sampled_from([MAX_ROWS - 1, MAX_ROWS, MAX_ROWS + 1]),
    stride=st.sampled_from([1, 10, 1000]),
    tau=st.sampled_from([None, 1.0, 0.5e4]),
    step=st.sampled_from([0.01, 0.1]),
    sweep=st.booleans(),
)
def test_size_edge_documents_parse_or_fail_typed(rows, stride, tau, step, sweep):
    """Run sizes at MAX_ROWS - 1, MAX_ROWS and MAX_ROWS + 1 samples are only parsed: each is valid or a ConfigError."""
    doc = {
        "model": {"g": 0.2, "gamma": 0.05, **({} if tau is None else {"tau": tau})},
        "drive": {"profile": "static", "f0": 0.2},
        "numerics": {"step": step, "t_end": step * stride * (rows - 1), "sample_stride": stride},
    }
    if sweep:
        doc["sweep"] = {"parameter": "F0", "values": [0.1, 0.2]}
    try:
        config = parse_config(json.loads(json.dumps(doc)))
    except ConfigError as exc:
        assert f"past {MAX_ROWS}" in str(exc)
    else:
        assert config.t_end == doc["numerics"]["t_end"]
