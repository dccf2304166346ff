"""Benchmark internals: workloads, calibration, spans, checks, runner.

Importing this package imports nothing else, so that ``run.py`` can pin
the thread pools before numpy loads.
"""

#: Environment variables that pin BLAS/OpenMP pools to one thread.
THREAD_PINS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
