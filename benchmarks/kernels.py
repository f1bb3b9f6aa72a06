"""Reference kernels that measure the speed of the machine, not the program.

The host's speed drifts by a third over minutes, and every sample is slowed
alike.  So each sample also times a fixed kernel of the kind of work its
workload does: right after set-up, right after the run, and in short slices
on a timer during the run (``SpeedProbe``).  The kernels do not call the
package, so a change to the program does not move them.  ``run.py`` quotes
times at the speed where a kernel iteration takes its nominal time.
"""

from __future__ import annotations

import functools
import signal
import time

PROBE_PERIOD_S = 0.25


def _scalar(iterations: int) -> None:
    # small numpy operations on 4x4 tables, an eigen-solve and float formatting
    import numpy as np

    h = np.arange(16.0).reshape(4, 4) / 7.0
    h = h + h.T
    acc = 0.0
    for i in range(iterations):
        w = np.linalg.eigvalsh(h * (1.0 + i * 1e-3))
        c = np.abs(np.kron(h[:2, :2], h[2:, 2:])) ** 2
        acc += float(c.sum() + w[0])
        format(acc, ".11e") + "," + format(float(w[1]), ".11e")


class _VectorBuffers:
    """Arrays the vector kernel writes into, allocated once.

    A kernel that allocated its arrays on every slice would shift the
    program's large allocations between the heap and mmap and make the
    peak RSS of a sample depend on when the timer fired.
    """

    size = 1 << 14

    def __init__(self):
        import numpy as np

        n = self.size
        self.rng = np.random.default_rng(0)
        self.draws = np.empty((n, 1))
        self.edges = np.empty((n, 4))
        self.above = np.empty((n, 4), dtype=bool)
        self.ins = np.empty(n, dtype=np.intp)
        self.fins = np.empty(n, dtype=np.intp)
        self.cum_in = np.array([0.1, 0.3, 0.6, 1.0])
        self.cum_fin = np.array([[0.5, 0.7, 0.9, 1.0]] * 4)


@functools.cache
def _vector_buffers() -> _VectorBuffers:
    return _VectorBuffers()


def _vector(iterations: int) -> None:
    # uniform draws binned into cumulative tables, as the sampler does per shot
    import numpy as np

    b = _vector_buffers()
    for _ in range(iterations):
        b.rng.random(out=b.draws[:, 0])
        np.greater_equal(b.draws, b.cum_in, out=b.above)
        b.above.sum(axis=1, out=b.ins)
        np.take(b.cum_fin, b.ins, axis=0, out=b.edges)
        b.rng.random(out=b.draws[:, 0])
        np.greater_equal(b.draws, b.edges, out=b.above)
        b.above.sum(axis=1, out=b.fins)
        np.multiply(b.ins, 4, out=b.ins)
        np.add(b.ins, b.fins, out=b.ins)
        np.bincount(b.ins, minlength=16)


# kind -> (kernel, iterations of a full timing, iterations of a probe slice,
#          seconds per iteration at the quoted speed: about the kernel's median
#          on a 2-vCPU Intel Xeon KVM guest with Python 3.11 and numpy 2.4)
KERNELS = {
    "scalar": (_scalar, 1500, 40, 5.0e-5),
    "vector": (_vector, 50, 2, 1.3e-3),
}


def reference(kind: str, probe: bool = False) -> float:
    """Seconds per iteration of one timing of the kernel."""
    kernel, full, slice_, _ = KERNELS[kind]
    iterations = slice_ if probe else full
    start = time.perf_counter()
    kernel(iterations)
    return (time.perf_counter() - start) / iterations


def nominal_s(kind: str) -> float:
    return KERNELS[kind][3]


class SpeedProbe:
    """Times a slice of a kernel every ``PROBE_PERIOD_S`` while the block runs.

    ``spent_s`` is the time the slices took, to be taken out of the block's
    wall time.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.per_iteration: list[float] = []
        self.spent_s = 0.0

    def __enter__(self):
        reference(self.kind, probe=True)  # allocate the kernel's arrays before the block
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.per_iteration.append(reference(self.kind, probe=True))
        self.spent_s += time.perf_counter() - start
