"""Test-session setup: BLAS on one thread, as CI and perfbench run it.

OpenBLAS may split a product across threads in a way that moves the last
bits of its sums, and ``test_fingerprint.py`` pins hashes of such sums.
The thread count is read when numpy loads, so it is set here, before any
test module imports numpy; if numpy is already loaded it is too late,
and the session stops.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin BLAS to one "
                       "thread; run the tests without plugins that import numpy")

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
