"""Test-session setup: BLAS on one thread, and numpy's AVX-512 kernels off.

OpenBLAS may split a product across threads in a way that moves the last
bits of its sums, and ``test_fingerprint.py`` pins hashes of such sums.

numpy dispatches float64 ``power``, ``exp``, ``log`` and ``tan`` to
AVX-512 kernels where the CPU has them, and those differ from the
libm results in the last bit on a few percent of inputs, so the pinned
hashes would depend on the CPU of the host.  With the AVX-512 targets
disabled, these ufuncs give libm's results on AVX-512 and AVX2-only hosts
alike.

Both are read when numpy loads, so they are set here, before any test
module imports numpy; if numpy is already loaded it is too late, and the
session stops.  Subprocesses that tests start inherit them.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin BLAS to one "
                       "thread; run the tests without plugins that import numpy")

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["NPY_DISABLE_CPU_FEATURES"] = "X86_V4 AVX512_ICL AVX512_SPR"
