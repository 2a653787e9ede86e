import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

STATUS = Path("/proc/self/status")
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


@pytest.mark.skipif(not STATUS.exists(), reason="needs /proc/self/status")
def test_blas_runs_one_thread():
    # conftest.py pins BLAS before numpy loads; a numpy imported earlier would start its threads
    a = np.ones((256, 256))
    assert (a @ a)[0, 0] == 256.0
    assert re.search(r"^Threads:\s+(\d+)$", STATUS.read_text(), re.M).group(1) == "1"


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_property_test_does_not_end_the_session(tmp_path):
    # reporting a failed @given example imports libcst, whose DeprecationWarning the
    # session's "error" filter used to turn into an INTERNALERROR that ended the run
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "test_property.py"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
