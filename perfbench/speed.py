"""Correction of job times for the host's speed at the moment they ran.

The reference host is a 2-core VM on a shared machine.  How fast it runs the
same code changes by up to 1.6x over tens of seconds to minutes (a 5-minute
trace of a fixed loop of scalar numpy calls read 0.18 to 0.32 s per
20-second window), and by how much differs with the kind of code: scalar
numpy calls move most, LAPACK eigensolvers less, memory-bound products
least.  Ten runs of the same job over 25 minutes spread by a third of their
median, more than any bound a regression gate could use.

So while a job runs, a :class:`SpeedMeter` times small fixed reference
kernels of the job's kind (the kernels are defined here and never call the
package), and the job's time is scaled by how much faster or slower than
nominal they ran:

    corrected = (wall time - time spent in the kernels)
                * mean over samples and kernels of (NOMINAL_S[kind] / kernel time)

``NOMINAL_S`` is each kernel's typical time on the reference host, so a
corrected time reads as seconds of that host at its usual speed.  The
kernels do not depend on the program, so a program change that makes a job
slower or faster moves the corrected time by the same factor as the wall
time.  Each job names the kernels that track it best: ``scalar`` for the
band search, ``small`` for the n=5 Newton search, ``stream`` for the n=100
contractions, and for the two-thread Kac-Rice oracle both ``pool`` (random
matrices diagonalised on two threads) and ``stream``: each alone left about
0.06 to 0.12 of the oracle's spread over 20-odd repetitions, the two
together 0.05 to 0.07.

A single-threaded job is sampled every ``PERIOD_S`` seconds from a SIGALRM
handler, which runs in the main thread between bytecodes while the job
waits.  A job that runs threads of its own is sampled only between its
operations, where none of its threads runs: the handler then only marks a
sample as due.  Samples at the start and end of a job, and between the
operations of a threaded one, average ``BURST`` kernel runs.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

PERIOD_S = 0.5

_rng = np.random.default_rng(20171115)
_T5 = _rng.standard_normal((5, 5, 5))
_M4 = _rng.standard_normal((4, 4))
_M4 = _M4 @ _M4.T + 4.0 * np.eye(4)
_CUBE = _rng.standard_normal((100, 100, 100))  # 8 MB, past the per-core L2
_V100 = _rng.standard_normal(100)


def _scalar() -> float:
    """Closed-form rate functions evaluated on 0-d arrays, one point at a time."""
    acc = 0.0
    for i in range(600):
        m = np.asarray(0.05 + 0.0015 * i)
        x = np.asarray(1.5 + 0.001 * i)
        one_minus = 1.0 - m * m
        edge = np.abs(m) >= 1.0
        val = (0.5 * np.log(one_minus) - 3.0 * m ** 4 * one_minus
               - (x - 3.0 * m ** 3) ** 2 + np.where(x > 1.5, np.sqrt(x * x - 2.0), 0.0))
        acc += float(np.where(edge, -np.inf, val))
    return acc


def _small() -> float:
    """Newton-step linear algebra on a 5x5x5 tensor."""
    acc = 0.0
    v = np.full(5, 1.0 / np.sqrt(5.0))
    for _ in range(300):
        g = np.einsum("ijk,j,k->i", _T5, v, v)
        h = np.einsum("ijk,k->ij", _T5, v)
        w = np.linalg.eigvalsh(h[:4, :4] + h[:4, :4].T)
        step = np.linalg.solve(_M4, g[:4])
        acc += float(w[-1] + step[0])
    return acc


def _pool() -> float:
    """Random symmetric matrices drawn and diagonalised on a pool of two threads."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        return sum(pool.map(_pool_task, range(16)))


def _pool_task(i: int) -> float:
    a = np.random.default_rng(i).standard_normal((60, 60))
    return float(np.linalg.eigvalsh(a + a.T)[-1] + np.linalg.eigvalsh(a[:30, :30] + a[:30, :30].T)[-1])


def _stream() -> float:
    """Contractions of an 8 MB order-3 array with a vector along its last axis."""
    acc = 0.0
    for _ in range(24):
        acc += float(_V100 @ (_CUBE.reshape(10000, 100) @ _V100).reshape(100, 100) @ _V100)
    return acc


KERNELS = {"scalar": _scalar, "small": _small, "pool": _pool, "stream": _stream}

#: Typical time of each kernel on the reference host (2-core Xeon VM,
#: OpenBLAS pinned to one thread).  These set only the scale of corrected
#: times; changing one moves every corrected time of its jobs by one factor.
NOMINAL_S = {"scalar": 0.0140, "small": 0.0125, "pool": 0.0135, "stream": 0.0130}

#: Kernel runs per sample at the start and end of a job and between the
#: operations of a threaded job; a sample from the timer is one run.
BURST = 8


def kernel_time(kind: str) -> float:
    t0 = time.perf_counter()
    KERNELS[kind]()
    return time.perf_counter() - t0


class SpeedMeter:
    """Samples reference kernels while a job runs and corrects the job's time."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.kinds: tuple[str, ...] = ()
        self.threaded = False
        self.due = self.sampling = False
        self.speeds: list[float] = []  # one per sample, relative to nominal
        self.spent = 0.0
        self.wall = self.net = 0.0

    def sample(self, runs: int = 1) -> None:
        """Time the kernels now; the time they take is not the job's."""
        t0 = time.perf_counter()
        self.speeds.append(statistics.fmean(
            NOMINAL_S[kind] / kernel_time(kind) for kind in self.kinds for _ in range(runs)))
        self.due = False
        self.spent += time.perf_counter() - t0

    def between_ops(self) -> None:
        """Called by a threaded job where none of its threads runs."""
        if self.due:
            self.sample(BURST)

    def _on_alarm(self, signum, frame) -> None:
        if self.threaded:
            self.due = True
        elif not self.sampling:  # an alarm during a sample would count twice
            self.sampling = True
            try:
                self.sample()
            finally:
                self.sampling = False

    @contextlib.contextmanager
    def watch(self, kinds: tuple[str, ...], threaded: bool):
        """Time the block, sampling ``kinds`` before, during and after it.

        Afterwards ``wall`` is the block's wall time and ``net`` that time
        less the samples taken inside it.
        """
        self.kinds, self.threaded = kinds, threaded
        self.speeds, self.spent, self.due = [], 0.0, False
        self.sample(BURST)
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        spent0, t0 = self.spent, time.perf_counter()
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.wall = time.perf_counter() - t0
        self.net = self.wall - (self.spent - spent0)
        self.sample(BURST)

    def corrected(self) -> float:
        """The block's net time at nominal speed: net times the mean speed."""
        return self.net * statistics.fmean(self.speeds)
