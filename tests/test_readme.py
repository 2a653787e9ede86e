import importlib
import re
import types
from pathlib import Path

import pytest

import qbattery
from qbattery.energetics import report_series

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("dynamics", "energetics", "cli", "oracle", "analytic", "cd_control", "model")


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    exec(compile(library_example(), "README.md", "exec"), {})
    ergotropy, energy, residual = map(float, capsys.readouterr().out.split())
    assert energy > 0.0
    assert ergotropy == pytest.approx(energy, rel=1e-9)  # at T = 0 the battery stays coherent
    assert residual <= 1e-6


def test_library_example_energies_are_ordered(capsys):
    # M rounds just below 1 on this coherent battery; no row may report
    # ergotropy above e_b or a negative passive energy
    namespace = {}
    exec(compile(library_example(), "README.md", "exec"), namespace)
    rows = report_series(namespace["traj"])
    assert len(rows) == 151
    assert all(0.0 <= r.passive_b and r.ergotropy_b <= r.e_b for r in rows)


def test_top_level_names_are_the_readme_ones():
    # the example imports these, and its comment names integrate as the alternative engine
    example = library_example()
    imported = re.search(r"^from qbattery import (.*)$", example, re.M).group(1).split(", ")
    public = {
        name for name, value in vars(qbattery).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert "integrate" in example
    assert public == set(imported) | {"integrate"}


def test_backticked_package_names_resolve():
    # every `module.name` or `qbattery.module.name` the README cites in a code span names an existing attribute
    pattern = rf"`(?:qbattery\.)?({'|'.join(MODULES)})\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)"
    cited = set(re.findall(pattern, README.read_text(encoding="utf-8")))
    assert cited

    def resolves(module, path):
        obj = importlib.import_module(f"qbattery.{module}")
        for part in path.split("."):
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True

    assert sorted(f"{module}.{path}" for module, path in cited if not resolves(module, path)) == []
