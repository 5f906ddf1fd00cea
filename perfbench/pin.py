"""Pin BLAS to one thread; import this before anything that imports numpy.

OpenBLAS reads its thread count once, when numpy loads it.
"""

import os

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)
