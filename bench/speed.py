"""Interpreter-speed probe that scales host times to a reference speed.

Host time on a shared machine swings with the load of its other tenants.
On the 2-core machine this benchmark was built on, a fixed piece of
pure-Python work ran at one of two speeds about 1.6 times apart, switching
every second or so, and over minutes the simulator's throughput moved by up
to a factor of two with it.  ``timed`` therefore samples the speed while
the measured call runs: a wall-clock interval timer interrupts it every
``PERIOD_S`` and runs a short fixed probe in the signal handler, in the
main thread.  The call's own time (its host time minus the time spent in
probes) is scaled by ``REFERENCE_S / mean probe time``, which gives the
seconds it would take when the probe takes ``REFERENCE_S``.

The probe is benchmark code only: no change to semcache can make it
faster or slower, except through the garbage collector, which is off while
it runs.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time

# Probe duration that defines the reference speed.
REFERENCE_S = 0.002
# Sampling period while a measured call runs.
PERIOD_S = 0.1


class _Entry:
    def __init__(self, key: bytes, stamp: float):
        self.key = key
        self.stamp = stamp


def probe() -> float:
    """Run a fixed mix of dict, tuple, heap and string work, and a
    minimum-scan over small objects keyed by ``str`` of bytes, on data small
    enough to stay in the CPU's caches; return its host time in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict[int, tuple] = {}
        heap: list[tuple[int, int]] = []
        x = 12345
        for i in range(1_200):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            key = x % 64
            table[key] = (i, key, str(key))
            heapq.heappush(heap, (x, i))
            if len(heap) > 32:
                heapq.heappop(heap)
        entries = [_Entry(b"wiki/TV/%d" % i, float(i * 37 % 64)) for i in range(64)]
        for _ in range(20):
            min(entries, key=lambda e: (e.stamp, str(e.key)))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def timed(fn, sample: bool = True):
    """Call ``fn()`` while sampling the interpreter's speed.

    Returns its result, its own host time in seconds (probe time removed),
    and that time scaled to the reference speed.  With ``sample`` false
    the speed comes only from probes just before and after the call, which
    keeps probe time out of spans recorded during it.
    """
    samples = [probe()]
    spent = [0.0]

    def on_alarm(signum, frame):
        start = time.perf_counter()
        samples.append(probe())
        spent[0] += time.perf_counter() - start

    previous = signal.signal(signal.SIGALRM, on_alarm)
    if sample:
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    samples.append(probe())
    own = elapsed - spent[0]
    return result, own, own * REFERENCE_S * len(samples) / sum(samples)
