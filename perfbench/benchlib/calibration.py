"""A fixed calibration kernel that tracks the host's momentary speed.

On a shared 2-core container, identical sweeps in one process were
measured from 1.6 s to 3.0 s, with slow and fast periods lasting from
under a second to minutes, while the process was never descheduled
(CPU time equalled wall time).  A raw wall time therefore measures the
neighbours as much as the program.

The kernel below is fixed work in the benchmark's own code: dict churn
and small numpy calls in the interpreter, and random reads over about
10 MB of Python objects.  No change to the program can speed it up.
The benchmark runs it next to every measured step and multiplies the
step's time by ``REFERENCE_S`` over the kernel's time: the result is
the step's time on a host that runs the kernel in ``REFERENCE_S``.

The mix was chosen by sampling the kernel's two halves every few
seconds for ten minutes beside points of each workload.  Averaged over
30 s windows, the interpreter half alone varied more than the
workloads and the memory half alone less; equal time on each tracked
them best (log-log slope 0.8-1.0), leaving 3-4% of the workloads' 6-7%
raw variation.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

import numpy as np

#: Kernel time on the 2-core reference container (Python 3.11, numpy
#: 2.4) in a middling period.  Any fixed value would do; this one keeps
#: calibrated times near raw ones there.
REFERENCE_S = 0.008

_VECTOR = np.linspace(0.0, 1.0, 32)
_RNG = random.Random(0)
#: 1M references to the 256 cached small ints (an 8 MB pointer array)
#: and a 100k-entry dict, both read in random order so that the reads
#: miss the CPU caches.
_TABLE = list(range(256)) * 4096
_ORDER = [_RNG.randrange(len(_TABLE)) for _ in range(8_000)]
_DICT = {i * 7919: i for i in range(100_000)}
_KEYS = [_RNG.randrange(100_000) * 7919 for _ in range(4_000)]


def _kernel() -> float:
    table: dict = {}
    total = 0.0
    for i in range(16_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    for index in _ORDER:
        total += _TABLE[index]
    for key in _KEYS:
        total += _DICT[key]
    for _ in range(1_000):
        total += float(_VECTOR.dot(_VECTOR))
    return total


def kernel_seconds(repeats: int = 1) -> float:
    """Median wall time of ``repeats`` runs of the calibration kernel."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        _kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)
