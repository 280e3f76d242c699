"""The host's speed, measured next to every timed operation.

The machine this benchmark was built on is a 2-CPU share of a host whose
other tenants slow it down by up to 2x for seconds to minutes at a time;
the program's own wall time and CPU time both carry that slowdown. A fixed
reference kernel, timed right before and right after each operation, carries
it too, so each operation's time is scaled to the host's reference speed:

    t_scaled = t * NOMINAL_S / mean(kernel time before, kernel time after)

Two kernels, for the two kinds of work the workloads do:

- ``interpreter``: a pure-Python loop over dicts and floats. The exact
  pipeline (``eq``, ``verify``, ``sweep``, ``search``) spends its time in
  the interpreter and in calls on small numpy arrays, and slows with it.
- ``vector``: sort, square root and sums over 200,000-element numpy arrays.
  ``simulate`` spends its time in such calls, and slows with them.

``NOMINAL_S`` is each kernel's time on the same machine while its host
was calm (about its 5th percentile over 16,883 timings), so scaled
times read as the time the operation takes on a calm host. The kernels are
fixed: they call nothing of the library, and changing one changes every
figure of the benchmark.
"""

from __future__ import annotations

import time

#: Kernel time in seconds on the calm host, by kernel.
NOMINAL_S = {"interpreter": 0.50e-3, "vector": 0.80e-3}


def _interpreter_kernel() -> float:
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(3000):
        k = i % 97
        table[k] = table.get(k, 0.0) + i * 0.5
        acc += (k * 1.0001) ** 0.5
    return acc


def _vector_kernel():
    # numpy is imported here, not at the top: the interpreter kernel times
    # the library's import, which must not find numpy already loaded
    import numpy as np

    data = np.random.default_rng(0).random(200_000)

    def kernel() -> float:
        return float(np.sort(data[:50_000]).sum() + (np.sqrt(data) * data).sum())

    return kernel


#: Kernel factories, by name.
KERNELS = {"interpreter": lambda: _interpreter_kernel, "vector": _vector_kernel}


class HostProbe:
    """Times one kernel on demand: the faster of two back-to-back calls."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.nominal_s = NOMINAL_S[kernel]
        self._fn = KERNELS[kernel]()
        self.samples: list[float] = []

    def __call__(self) -> float:
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            self._fn()
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)
        return best

    def scale(self, before: float, after: float) -> float:
        """Factor that turns a time measured between two probes into calm-host time."""
        return self.nominal_s * 2.0 / (before + after)
