"""Machine-speed reference kernels for normalizing end-to-end times.

On the 2-vCPU VM this benchmark was written on, the same CPU-bound work
runs up to 1.5-2x slower for seconds to minutes at a time (the cause
is outside the benchmark's process; no steal time is reported), so raw medians
of consecutive 28 s runs spread by 10-22%. Each timed trial is therefore
bracketed by a short fixed kernel that uses no mscache code, and its time
is reported as

    wall seconds * NOMINAL_S / mean of the kernel seconds before and after,

i.e. in seconds at the machine speed where the kernel takes NOMINAL_S.
Interpreter-bound and array-bound code do not slow down together, so
there are two kernels; each workload names the one that matches where
its trial time goes. Over 30 s windows in which raw trial medians moved
by 18-70%, the normalized medians moved by 5-10%.
"""

import time

import numpy as np

P = 65537
_X = np.arange(1 << 17, dtype=np.int64)


def interpreter() -> float:
    """Wall seconds of fixed interpreter-bound work.

    Modular Gauss-Jordan elimination on small Python lists, plus many
    numpy calls on tiny arrays, as the ZF solves and rank checks make.
    """
    t0 = time.perf_counter()
    for rep in range(60):
        m = [[(7 * i + 13 * j + rep) % P + 1 for j in range(6)] for i in range(6)]
        for c in range(6):
            piv = next((k for k in range(c, 6) if m[k][c]), None)
            if piv is None:
                continue
            m[c], m[piv] = m[piv], m[c]
            inv = pow(m[c][c], -1, P)
            m[c] = [x * inv % P for x in m[c]]
            for k in range(6):
                if k != c and m[k][c]:
                    f = m[k][c]
                    m[k] = [(a - f * b) % P for a, b in zip(m[k], m[c])]
        a = np.arange(36, dtype=np.int64).reshape(6, 6)
        for _ in range(20):
            a = (a @ a + 1) % P
    return time.perf_counter() - t0


def array() -> float:
    """Wall seconds of fixed array-bound work: int64 arithmetic on 1 MiB arrays."""
    t0 = time.perf_counter()
    y = _X
    for _ in range(8):
        y = (y * 3 + _X) % P
    return time.perf_counter() - t0


# Kernel name -> (kernel, its nominal seconds). The nominal values are the
# kernels' median times on the machine above, so normalized times are
# close to wall times at its usual speed.
KERNELS = {
    "interpreter": (interpreter, 0.006),
    "array": (array, 0.007),
}


class Bracket:
    """Normalizes consecutive timings by the kernel runs on either side."""

    def __init__(self, kind: str):
        self.kernel, self.nominal = KERNELS[kind]
        self.before = self.kernel()
        self.factors = []

    def normalize(self, seconds: float) -> float:
        """Call right after the timed work; returns its normalized seconds."""
        after = self.kernel()
        factor = 2 * self.nominal / (self.before + after)
        self.before = after
        self.factors.append(factor)
        return seconds * factor
