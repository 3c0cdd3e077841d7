"""Machine-speed calibration: a fixed kernel timed between the measured calls.

The benchmark runs on shared machines whose speed drifts by up to about 1.7x
over seconds to minutes, as other tenants load the cores, caches and memory.
A time measured in one run then says as much about the neighbours as about
the program.  To cancel that drift, the benchmark times ``kernel()`` before
every measured call and reports the run's times scaled to the speed at which
the kernel takes ``REFERENCE_S``:

    reported = measured * REFERENCE_S / median(kernel times of the run)

The kernel is the benchmark's own code and never calls the program, so a
change to the program moves the reported time in full; only the machine's
speed during the run is divided out.  It mixes what the program spends its
time on: vectorized exponentials and a node-axis contraction on the (time
grid x quadrature node) shape of the root solve, a scalar Python loop like
the integrator's and the command line's bookkeeping, and page faults on
freshly mapped memory.  One factor per run, from the median of many kernel
samples, adds less noise than scaling each call by the kernels next to it;
the passes' medians take care of drift within a run.
"""

from __future__ import annotations

import math
import mmap
import statistics
from time import perf_counter

import numpy as np

# Median kernel time on the reference machine (2-core Xeon VM, Python 3.11,
# numpy 2.4).  A fixed scale: it only sets the speed that reported times
# refer to.
REFERENCE_S = 0.0145

_rng = np.random.default_rng(20211208)
_A = _rng.uniform(0.5, 1.0, (2001, 1))
_PI = _rng.uniform(0.0, 1.0, (2001, 1))
_Z = _rng.uniform(0.1, 2.0, 64)
_W = _rng.uniform(0.0, 0.05, 64)
# The arithmetic writes only into these buffers, so its time does not depend
# on the heap the program left behind.
_BUF = tuple(np.empty((2001, 64)) for _ in range(4))
_ROW = np.empty(2001)
# The program's large temporaries come from fresh pages, and on the reference
# machine it spends about half of a base-size solve in page faults, whose
# cost drifts with the neighbours' memory traffic.  So the kernel also maps,
# touches and unmaps a fixed number of fresh pages.
_PAGE = mmap.PAGESIZE
_FAULT_PAGES = 2048


def _faults() -> None:
    with mmap.mmap(-1, _FAULT_PAGES * _PAGE) as mm:
        if hasattr(mm, "madvise") and hasattr(mmap, "MADV_NOHUGEPAGE"):
            mm.madvise(mmap.MADV_NOHUGEPAGE)     # one fault per small page
        pages = np.frombuffer(mm, dtype=np.uint8)
        pages[::_PAGE] = 1
        del pages                                # release the buffer before unmapping


def kernel() -> float:
    """Run the fixed kernel once; return its duration in seconds."""
    zA, zA2, ep, mix = _BUF
    t0 = perf_counter()
    for _ in range(4):
        np.multiply(_Z, _A, out=zA)
        np.multiply(zA, zA, out=zA2)
        np.multiply(zA2, _PI, out=ep)
        ep *= 0.3
        np.exp(ep, out=ep)
        np.divide(0.3, ep, out=mix)
        mix += ep
        mix *= zA2
        np.matmul(mix, _W, out=_ROW)
    s = float(_ROW[0])
    for i in range(12000):
        s += (i % 7) * 0.5
    _faults()
    return perf_counter() - t0


class Clock:
    """Times calls and samples the machine's speed with the kernel between them.

    Before each call the kernel runs once per started second of the call
    before, so the samples spread over the run's time, not over its calls.
    """

    def __init__(self):
        self.kernels = []
        self._due = 1

    def time(self, fn):
        """``(fn(), seconds)``, after the kernel runs that are due."""
        self.kernels.extend(kernel() for _ in range(self._due))
        t0 = perf_counter()
        result = fn()
        seconds = perf_counter() - t0
        self._due = max(1, math.ceil(seconds))
        return result, seconds

    def scale(self) -> float:
        """Factor from this run's times to reference-speed times."""
        return REFERENCE_S / statistics.median(self.kernels)
