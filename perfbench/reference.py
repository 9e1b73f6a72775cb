"""A host-speed gauge: a fixed pure-Python job timed on a side thread.

On a shared host the same verification can take 40% longer from one
minute to the next while neighbours compete for the physical cores, and
its CPU time grows with it, so neither the wall nor the CPU time of a run
is steady on its own.  :class:`HostGauge` runs :func:`reference_job` on a
thread of the benchmark's own process every :data:`PERIOD_S` (and the
benchmark runs it between items) and records the thread CPU time each run
took; the benchmark divides every timed item by the job's mean slowdown
within :data:`WINDOW_S` of the item, which turns host slowdowns into a
near-constant factor.  A thread rather than a side process: on this class
of host a second busy process makes the two vCPUs contend, which inflates
the wall time being measured.

The job must not depend on the program under test, or a regression
would slow the gauge too and be divided away.  So it creates no object
the garbage collector tracks: no dict, list, tuple or instance, only
strings, bytes and ints.  It never advances the collector's counters, so
no collection over the program's heap, whose cost grows with that heap,
can land inside it.  It is bytecode dispatch over small ints and tables
built once at import (CPython preallocates small ints, so that part
allocates nothing), short-lived strings that are formatted and hashed,
and a SHA-256 over a rotated 64 KB buffer: in kind, the work of the
program's interpreter and fingerprints.  It costs about a twentieth of
one core on every run alike; :meth:`HostGauge.thread_cpu` lets the
benchmark take that CPU back out of the program's CPU time.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import threading
import time

#: the job's thread CPU seconds at the reference speed; scaled times are
#: seconds on a host that runs the job this fast.  Only ratios between
#: runs of the benchmark mean anything.
REFERENCE_S = 0.0100
#: seconds between the starts of two reference jobs
PERIOD_S = 0.3
#: how far around an item the jobs that scale it may lie
WINDOW_S = 1.5
#: rounds of one job
ROUNDS = 50

_rng = random.Random(7)
#: small ints (< 256) only: CPython preallocates them
_DATA = [_rng.randrange(256) for _ in range(512)]
_PERM = _rng.sample(range(256), 256)
_BLOB = bytes(_rng.randrange(256) for _ in range(1 << 16))


def reference_job() -> int:
    perm, data, blob = _PERM, _DATA, _BLOB
    x = y = acc = 0
    for r in range(ROUNDS):
        for v in data:
            x = perm[x ^ v]
            if x < y:
                y = perm[y ^ x]
            else:
                y = perm[perm[y] ^ v]
        for i in range(400):
            acc ^= hash(f"{i}:{r}:{x}")
        cut = (r * 4099) & 0xFFFF
        acc ^= hashlib.sha256(blob[cut:] + blob[:cut]).digest()[0]
    return acc ^ x ^ y


class HostGauge:
    """The gauge thread and its samples: ``(midpoint, slowdown)`` per
    job, where the slowdown is the job's thread CPU time over
    :data:`REFERENCE_S`."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self.sample()

    def thread_cpu(self) -> float:
        """CPU seconds the gauge thread has used so far."""
        return time.clock_gettime(
            time.pthread_getcpuclockid(self.thread.ident))

    def sample(self) -> None:
        """Time one job on the calling thread.  The benchmark also calls
        this between items, where nothing else runs."""
        wall0, cpu0 = time.perf_counter(), time.thread_time()
        reference_job()
        cpu = time.thread_time() - cpu0
        self.samples.append(((wall0 + time.perf_counter()) / 2,
                             cpu / REFERENCE_S))

    def sample_if_stale(self) -> None:
        """Time a job here unless one finished within half a period."""
        if (not self.samples
                or time.perf_counter() - self.samples[-1][0] > PERIOD_S / 2):
            self.sample()

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown of the jobs around ``[start, end]``, widened by
        :data:`WINDOW_S` so a short item averages several jobs."""
        near = [factor for mid, factor in self.samples
                if start - WINDOW_S <= mid <= end + WINDOW_S]
        if not near:
            raise RuntimeError("host gauge reported no samples")
        return statistics.fmean(near)

    def settle(self) -> None:
        """Wait until the jobs covering everything timed so far are in."""
        until = time.perf_counter() + WINDOW_S
        while not (self.samples and self.samples[-1][0] > until):
            if not self.thread.is_alive():
                raise RuntimeError("host gauge stopped")
            time.sleep(PERIOD_S / 4)

    def close(self) -> None:
        self._stop.set()
        self.thread.join()
