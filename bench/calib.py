"""Host calibration: frozen, program-independent reference probes.

Shared hosts change speed from second to second, in short bursts.  A
probe run only before and after a five-second call misses most of them,
so :class:`HostSampler` also samples *during* the timed call, from a
``SIGALRM`` handler in the same thread, every :data:`INTERVAL_S`.

Slow phases do not slow all code alike.  On the reference host,
interpreter-bound work (allocation, dicts, bytes, JSON) slowed about
twice as much as big-integer arithmetic.  So each sample times two
probes, and each timed phase is scaled by the one that matches what
dominates it (its *yardstick*, fixed per workload phase in
``workloads.py``):

    normalised = (raw - probe time inside the call) * REF_S / mean(probe samples)

``arith`` fits phases dominated by RSA key generation and signing;
``interp`` fits everything else.  The result reads as "how long this
would have taken on the reference host".

Both probes keep a working set that stays in cache, run with the cyclic
garbage collector off so the program's heap cannot change their cost,
and import nothing from ``repro``, so a change to the program can never
move the yardstick.  Do not edit them: every recorded number is scaled
by them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import signal
import statistics
import time

_clock = time.perf_counter

# Median probe times on the reference host (2-vCPU cloud VM, CPython 3.11.7).
REF_S = {"interp": 0.00080, "arith": 0.00030}
# Sampling period inside a timed call: ~20 samples a second for ~2.5% of its time.
INTERVAL_S = 0.05

_ROWS = 200
_MODULUS = int.from_bytes(hashlib.sha512(b"calib-n").digest() * 2, "big") | (1 << 1023) | 1
_EXPONENT = int.from_bytes(hashlib.sha512(b"calib-e").digest()[:8], "big")


def interp_probe() -> int:
    """Object churn, dict traffic, bytes, sha256 and JSON; returns a checksum."""
    rows = [
        {"id": i, "host": f"site-{i % 13}.example", "tags": (i, i * 7 % 13)}
        for i in range(_ROWS)
    ]
    index: dict[str, list[int]] = {}
    for row in rows:
        index.setdefault(row["host"], []).append(row["id"])
    blob = b"".join(row["host"].encode() + row["id"].to_bytes(4, "big") for row in rows)
    digest = hashlib.sha256(blob).digest()
    decoded = json.loads(json.dumps(rows, separators=(",", ":")))
    return len(index) + len(decoded) + digest[0]


def arith_probe() -> int:
    """One 1024-bit modular exponentiation; returns a checksum."""
    return pow(0x5EED, _EXPONENT, _MODULUS) & 0xFFFF


def sample() -> dict[str, float]:
    """Wall time of each probe, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = _clock()
        interp_probe()
        middle = _clock()
        arith_probe()
        return {"interp": middle - start, "arith": _clock() - middle}
    finally:
        if enabled:
            gc.enable()


class HostSampler:
    """Times one call and samples host speed before, during and after it.

    ``on_probe(seconds)`` is told about every sample taken inside the
    call, so a tracer can leave that time out of the spans it interrupts.
    Only usable from the main thread (it owns ``SIGALRM`` while active).
    """

    def __init__(self, on_probe=None) -> None:
        self.on_probe = on_probe
        self.samples: list[dict[str, float]] = []
        self.inside_s = 0.0  # probe time spent inside the call
        self.raw_s = 0.0

    def _alarm(self, signum, frame) -> None:
        start = _clock()
        self.samples.append(sample())
        spent = _clock() - start
        self.inside_s += spent
        if self.on_probe is not None:
            self.on_probe(spent)

    def __enter__(self) -> "HostSampler":
        self.samples.append(sample())
        self._handler = signal.signal(signal.SIGALRM, self._alarm)
        self._start = _clock()
        self._timer = signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, *self._timer)
        self.raw_s = _clock() - self._start
        signal.signal(signal.SIGALRM, self._handler)
        self.samples.append(sample())

    @property
    def work_s(self) -> float:
        """Raw time of the call itself, probes left out."""
        return self.raw_s - self.inside_s

    def slowdown(self, yardstick: str) -> float:
        """How much slower than the reference host ``yardstick`` ran."""
        return statistics.fmean(s[yardstick] for s in self.samples) / REF_S[yardstick]

    def normalised_s(self, yardstick: str) -> float:
        return self.work_s / self.slowdown(yardstick)


def hardware() -> dict:
    """The host facts recorded next to every result."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "probe_ref_s": REF_S,
    }
