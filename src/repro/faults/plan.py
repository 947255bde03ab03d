"""Seeded fault plans: every injected failure is a pure hash decision.

A :class:`FaultPlan` is parsed from a compact ``key=value`` string
(the ``--faults`` CLI argument) and answers one question everywhere a
fault *could* happen: "does this fault fire at this site?".  The
answer is ``stable_hash(seed, "fault", kind, *site) < rate * 2**64``
— a pure function of the plan seed and the site coordinates, never of
wall clock, process id or worker count.  Fast-mode delivery faults key
on the global operation ordinal (assigned in fixed plan order in the
parent process), wire faults on a per-target connection ordinal, and
store crashes on a per-point occurrence counter, so the same plan
reproduces the same faults for any ``--workers`` value.

Plan grammar (comma-separated, order-insensitive)::

    reset=0.05,429=0.02,crash-rotate=1,segment-bytes=4096,seed=7

* ``<kind>=<rate>`` — probability in [0, 1] for a fault kind:
  ``connect-refused``, ``reset``, ``truncate``, ``corrupt``, ``stall``
  (wire path), ``server-5xx``, ``server-slow``, ``429`` (reporting
  server), ``drop`` (unrecoverable loss in the fast-mode gate).
* ``crash-<point>=<N>`` — kill the store writer at every Nth hit of a
  named crash point (``flush``, ``rotate``, ``seal``, ``compact``).
* ``seed=<int>`` — decision seed (default 0).
* ``retries=<int>`` — retry budget for recovery loops (default 8).
* ``deadline=<int>`` — per-session/submission backoff budget in
  cooperative ticks (default 256).
* ``tear=<0|1>`` — whether a simulated crash leaves a torn half-row in
  the active segment (default 1).
* ``segment-bytes=<int>`` / ``batch-rows=<int>`` — store geometry
  overrides so small runs still roll/flush segments often enough to
  exercise the crash points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util import stable_hash

WIRE_FAULT_KINDS = ("connect-refused", "reset", "truncate", "corrupt", "stall")
SERVER_FAULT_KINDS = ("server-5xx", "server-slow", "429")
RATE_KINDS = frozenset(WIRE_FAULT_KINDS + SERVER_FAULT_KINDS + ("drop",))
CRASH_POINTS = ("flush", "rotate", "seal", "compact")

_SPAN = 1 << 64


class FaultPlanError(ValueError):
    """Raised for an unparsable or inconsistent plan string."""


@dataclass
class FaultPlan:
    """A deterministic fault schedule."""

    seed: int = 0
    rates: dict[str, float] = field(default_factory=dict)
    crash_every: dict[str, int] = field(default_factory=dict)
    retries: int = 8
    deadline: int = 256
    tear: bool = True
    segment_bytes: int | None = None
    batch_rows: int | None = None

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        plan = cls(seed=seed)
        for token in filter(None, (part.strip() for part in text.split(","))):
            key, sep, value = token.partition("=")
            if not sep:
                raise FaultPlanError(f"fault rule {token!r} is not key=value")
            key = key.strip()
            value = value.strip()
            try:
                if key in RATE_KINDS:
                    rate = float(value)
                    if not 0.0 <= rate <= 1.0:
                        raise FaultPlanError(f"rate for {key!r} must be in [0, 1]")
                    plan.rates[key] = rate
                elif key.startswith("crash-"):
                    point = key[len("crash-"):]
                    if point not in CRASH_POINTS:
                        raise FaultPlanError(
                            f"unknown crash point {point!r} "
                            f"(valid: {', '.join(CRASH_POINTS)})"
                        )
                    every = int(value)
                    if every < 1:
                        raise FaultPlanError("crash cadence must be >= 1")
                    plan.crash_every[point] = every
                elif key == "seed":
                    plan.seed = int(value)
                elif key == "retries":
                    plan.retries = max(1, int(value))
                elif key == "deadline":
                    plan.deadline = max(1, int(value))
                elif key == "tear":
                    plan.tear = bool(int(value))
                elif key == "segment-bytes":
                    plan.segment_bytes = max(64, int(value))
                elif key == "batch-rows":
                    plan.batch_rows = max(1, int(value))
                else:
                    raise FaultPlanError(
                        f"unknown fault rule {key!r} (kinds: "
                        f"{', '.join(sorted(RATE_KINDS))}; crash-<point>, seed, "
                        "retries, deadline, tear, segment-bytes, batch-rows)"
                    )
            except ValueError as exc:
                if isinstance(exc, FaultPlanError):
                    raise
                raise FaultPlanError(f"bad value in {token!r}: {exc}") from None
        return plan

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        parts.extend(f"{kind}={rate:g}" for kind, rate in sorted(self.rates.items()))
        parts.extend(
            f"crash-{point}={every}"
            for point, every in sorted(self.crash_every.items())
        )
        return ",".join(parts)

    # -- decisions -------------------------------------------------------

    def rate(self, kind: str) -> float:
        return self.rates.get(kind, 0.0)

    def fires(self, kind: str, *site) -> bool:
        """Does fault ``kind`` fire at ``site``?  Pure hash decision."""
        rate = self.rates.get(kind, 0.0)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return stable_hash(self.seed, "fault", kind, *site) < int(rate * _SPAN)

    def roll(self, span: int, *site) -> int:
        """A deterministic integer in ``[0, span)`` for ``site``."""
        return stable_hash(self.seed, "roll", *site) % span

    def stall_ticks(self, *site) -> int:
        """Client-side stall (cooperative ticks) for a submission."""
        if not self.fires("stall", *site):
            return 0
        return 1 + self.roll(8, "stall", *site)

    # -- plan shape ------------------------------------------------------

    def has_wire_faults(self) -> bool:
        return any(self.rates.get(kind, 0.0) > 0 for kind in WIRE_FAULT_KINDS)

    def has_server_faults(self) -> bool:
        return any(self.rates.get(kind, 0.0) > 0 for kind in SERVER_FAULT_KINDS)

    def has_crashes(self) -> bool:
        return bool(self.crash_every)


class Backoff:
    """Bounded exponential backoff with seeded full jitter, in ticks.

    ``delay()`` returns the wait before retry ``attempt`` (0-based):
    a jittered draw from ``[1, min(cap, base << attempt)]``, floored by
    the server's ``Retry-After`` when one was given.  Time here is
    cooperative ticks — nothing sleeps; callers account the ticks
    against a deadline budget so "waiting" is deterministic and free.
    """

    def __init__(self, seed: int = 0, base: int = 1, cap: int = 64) -> None:
        if base < 1 or cap < base:
            raise ValueError("need 1 <= base <= cap")
        self.seed = seed
        self.base = base
        self.cap = cap

    def delay(self, attempt: int, *site, retry_after: int | None = None) -> int:
        window = min(self.cap, self.base << min(attempt, 16))
        jitter = stable_hash(self.seed, "backoff", attempt, *site) % window
        delay = 1 + jitter
        if retry_after is not None:
            delay = max(delay, retry_after)
        return delay
