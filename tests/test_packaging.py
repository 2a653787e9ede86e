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
