"""One BLAS thread for the whole suite, as CI and the benchmark run it.

The acceptance checks carry wall-time budgets, which an unpinned BLAS on a
loaded machine can miss.  The settings must precede the first numpy import,
and an explicit setting in the environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
