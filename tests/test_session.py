import re
from pathlib import Path

import numpy as np
import pytest

STATUS = Path("/proc/self/status")


@pytest.mark.skipif(not STATUS.exists(), reason="needs /proc/self/status")
def test_blas_runs_one_thread():
    # conftest.py pins BLAS before numpy loads; a numpy imported earlier would start its threads
    a = np.ones((256, 256))
    assert (a @ a)[0, 0] == 256.0
    assert re.search(r"^Threads:\s+(\d+)$", STATUS.read_text(), re.M).group(1) == "1"
