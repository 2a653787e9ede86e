import ast
import importlib
from pathlib import Path

import pytest

from qbattery import cli

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_distribution_is_qbattery_with_one_version():
    # the distribution, import and script names agree, and qbattery.__version__ is the one version written
    doc = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))
    project = doc["project"]
    assert project["name"] == "qbattery"
    assert "version" not in project and project["dynamic"] == ["version"]
    assert doc["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "qbattery.__version__"}
    module, _, name = project["scripts"]["qbattery"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.main


SOURCES = sorted((PYPROJECT.parent / "src" / "qbattery").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_catch_all_handler_and_every_exported_name_resolves(path):
    # a handler names the errors it expects, so an unexpected one still ends as a traceback someone sees
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names = {getattr(t, "id", getattr(t, "attr", None)) for t in caught}
            assert node.type is not None and not names & {"Exception", "BaseException"}, f"{path.name}:{node.lineno}"
    module = importlib.import_module("qbattery" if path.stem == "__init__" else f"qbattery.{path.stem}")
    assert all(hasattr(module, name) for name in getattr(module, "__all__", ())), path.name
