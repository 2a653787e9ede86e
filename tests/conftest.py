"""Test-session setup: BLAS and OpenMP run on one thread each.

OpenBLAS reads these variables once, when numpy first loads it, and pytest
imports this file before any test module imports numpy. The dense oracle's
small matrix products gain nothing from a second BLAS thread on a few cores.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
