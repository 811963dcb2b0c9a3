"""Calibration: fixed pieces of work that track the speed of the machine.

On the 2-vCPU VM that the README figures come from, the CPU changes speed
by up to 2x from one second to the next (a Python loop ran 610 to 900
passes/s, a 4x4 numpy loop 2,100 to 4,400/s), and a 10 s run can sit wholly
in a slow stretch.  Raw run medians of the same code then differ by 40%.  So every timed operation
is paired with a reference piece of work that uses no spinlift code, timed
just before and after it, and its wall time is reported at the reference
speed:  t * ref_s / (mean of the two reference times).

* In-process operations are paired with ``kernel``: 4x4 and 16x16 numpy
  calls with Python overhead, the kind of work spinlift does.  Over 150 s of
  lift rounds the ratio of round time to kernel time had a spread of 1.8%
  across 10 s windows, against 42% for the raw round time.
* Process starts (cold starts, one-shot CLI requests) are paired with a
  fresh ``python -c "import numpy"`` (see ``run.py``).  The kernel, run in
  the parent, did not track them (correlation 0.10); the reference start
  did (0.79), and cut the per-request spread from 0.31 to 0.11.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Kernel time at the reference speed.  Its median on the machine the
#: README figures come from was 0.97 ms.
KERNEL_REF_S = 1.0e-3
#: Time of a fresh ``python -c "import numpy"`` at the reference speed (its
#: median on that machine was about 0.2 s).
START_REF_S = 0.2


@dataclass(frozen=True)
class Calibration:
    """A reference measurement: ``sample()`` returns seconds; it is taken
    before an operation when ``every_s`` has passed since the last one, and
    samples are smoothed by a running median of ``smooth``."""

    sample: Callable[[], float]
    every_s: float
    ref_s: float
    smooth: int


_rng = np.random.default_rng(0)
_A4 = _rng.standard_normal((4, 4))
_C4 = _A4 + 1j * _rng.standard_normal((4, 4))
_A16 = _rng.standard_normal((16, 16))
_V = _A16.reshape(4, 4, 16)


def kernel(passes: int = 20):
    for _ in range(passes):
        b = _A4 @ _A4
        np.linalg.inv(_A4)
        float(np.trace(b))
        np.abs(b).max()
        _C4 @ _C4
        np.tensordot(_A4[0], _V, axes=1)
        np.abs(_A16 @ _A16).max()
        s = 0.0
        for i in range(50):
            s += i * 0.5


def kernel_sample() -> float:
    """Seconds the kernel takes now.  A short untimed pass first brings its
    code and data back into cache, which a child process may have evicted."""
    kernel(5)
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


#: In-process operations: a kernel sample at least every 20 ms.
KERNEL = Calibration(kernel_sample, 0.02, KERNEL_REF_S, 5)


def scale(times, before, after, ref_s: float):
    """Times at reference speed, given reference samples taken around each."""
    return np.asarray(times) * ref_s / ((np.asarray(before) + np.asarray(after)) / 2.0)
