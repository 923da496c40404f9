"""Test setup: single-thread BLAS, as in the CLI and the benchmark.

It must be set before numpy loads its BLAS, which is why it lives here and
not in a fixture. Each test's arrays are small, so extra BLAS threads only
contend for the CPU with each other; and criteria 01 and 06 have wall-clock
budgets that should not depend on how many cores the machine has free.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
