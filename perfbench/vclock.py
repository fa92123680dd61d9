"""The benchmark's clock on a shared host: wall time minus steal.

A virtual machine on a host shared with other tenants loses its vCPUs now
and then to the hypervisor, which runs someone else on the core; the guest
kernel counts that time as *steal* in ``/proc/stat``. On the host this
benchmark was sized on, steal ran from nothing to more than the program's
own CPU time within minutes, and wall-clock throughput moved with it by a
factor of two.

The benchmark therefore pins itself, and with it every process it starts
(Ray's daemons and workers, the relay daemon, the follow generator and
consumer), to one vCPU, and reports every interval as its wall time minus
the steal of that vCPU over the same interval. On an unshared host steal is
0 and the two agree.
"""

from __future__ import annotations

import bisect
import os
import threading
import time

TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def pin() -> int:
    """Pin this process, and so every process it starts later, to the
    highest-numbered vCPU it may run on; return that vCPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class StealClock:
    """Samples one vCPU's steal counter every ``INTERVAL_S`` in a thread,
    so that the steal over any interval of the run can be read afterwards,
    intervals that other processes timed included."""

    INTERVAL_S = 0.02

    def __init__(self, cpu: int):
        self.cpu = cpu
        self._prefix = f"cpu{cpu} "
        self._times: list[float] = []
        self._steal: list[float] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def steal_s(self) -> float:
        """The vCPU's steal counter, in seconds."""
        with open("/proc/stat") as fh:
            for line in fh:
                if line.startswith(self._prefix):
                    return int(line.split()[8]) * TICK_S
        raise RuntimeError(f"/proc/stat has no steal counter for vCPU {self.cpu}")

    def sample(self) -> None:
        with self._lock:
            t, s = time.time(), self.steal_s()
            self._times.append(t)
            self._steal.append(s)

    def _loop(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            self.sample()

    def _steal_at(self, t: float) -> float:
        """The counter at wall time ``t``, interpolated between samples."""
        i = bisect.bisect_left(self._times, t)
        if i == 0:
            return self._steal[0]
        if i == len(self._times):
            return self._steal[-1]
        t0, t1 = self._times[i - 1], self._times[i]
        s0, s1 = self._steal[i - 1], self._steal[i]
        return s0 + (s1 - s0) * (t - t0) / (t1 - t0) if t1 > t0 else s1

    def elapsed(self, t0: float, t1: float) -> float:
        """Seconds from wall time ``t0`` to ``t1`` (``time.time()`` values,
        ``t1`` in the past) that the vCPU was not stolen."""
        self.sample()  # so that t1 lies before the newest sample
        with self._lock:
            return (t1 - t0) - (self._steal_at(t1) - self._steal_at(t0))

    def stolen(self) -> float:
        """Seconds of steal since the clock started."""
        self.sample()
        return self._steal[-1] - self._steal[0]

    def __enter__(self):
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
