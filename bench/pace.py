"""Host pace: a fixed reference kernel timed between benchmark operations.

On a shared virtual machine the speed of one core drifts by tens of percent
over seconds to minutes (other tenants share the physical cores), and all
code slows down together.  The benchmark runs this kernel every
``EVERY_S`` seconds between operations and reports every time at reference
pace: a raw time is multiplied by ``REFERENCE_S`` over the kernel's local
duration (the median of the ``WINDOW`` samples around it).  On a host
running at the reference pace the two readings agree; elsewhere the
reported times are what that host would have shown.

The kernel runs no code of the package, so a change to the package cannot
move it; its instruction mix (small numpy linear algebra called from Python,
plus plain float arithmetic) resembles the package's.
"""

import time

import numpy as np

# Median duration of reference_kernel() on the machine where the benchmark
# was written: a 2-vCPU x86-64 VM, Python 3.11, numpy 2.4, one BLAS thread.
REFERENCE_S = 0.3e-3
EVERY_S = 0.04
WINDOW = 25

_RNG = np.random.default_rng(20090612)
_REAL = [_RNG.normal(size=(4, 4)) for _ in range(4)]
_HERM = [a + a.T + 1j * (a - a.T) for a in _REAL]


def reference_kernel() -> float:
    total = 0.0
    for a, h in zip(_REAL, _HERM):
        total += float(np.linalg.eigh(h)[0][0])
        total += float(np.linalg.svd(a, compute_uv=False)[0])
        total += float(np.linalg.norm(a @ a.T @ a, 2))
        total += float(np.einsum("ij,ji->", a, h).real)
        for x in a.ravel().tolist():
            total += x * x
    return total


class Pace:
    """Kernel samples taken through a run, and the factors they give."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        # Untimed first run: after a child process the caches are cold, and
        # the kernel would read about twice as slow.
        reference_kernel()
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self._last = end

    def tick(self) -> int:
        """Sample when EVERY_S has passed since the last sample; returns the
        index of the latest sample, to tag the operation that follows."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()
        return len(self.samples) - 1

    def factor(self, index: int) -> float:
        """Reference over local kernel duration around sample ``index``."""
        lo = max(0, index - WINDOW // 2)
        window = sorted(self.samples[lo : lo + WINDOW])
        return REFERENCE_S / window[len(window) // 2]
