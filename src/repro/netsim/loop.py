"""The cooperative task loop over the simulated network.

"Concurrency" here means interleaving progress across many client
state machines, the same job a selector loop does for real sockets.
:class:`WireScheduler` round-robins a set of generator tasks: each task
yields whenever it has handed bytes to the network and is willing to
let other connections run, and finishes by returning.  Between ticks
the scheduler drains the network's
:class:`~repro.netsim.events.DeliveryQueue`, which is how one process
multiplexes thousands of concurrent wire-mode measurement sessions, or
a crowd of reporting clients in the chaos drills.
"""

from __future__ import annotations

import random
from collections import deque
from typing import TYPE_CHECKING, Callable, Iterator

if TYPE_CHECKING:
    from repro.netsim.network import Network


class LoopStarvation(RuntimeError):
    """``run()`` hit its deadline with tasks still in flight.

    Carries the labels of the stuck tasks so a starved run is
    diagnosable — a task spawning fresh work every tick, or one
    waiting on bytes that will never arrive, shows up by name instead
    of as a silent infinite loop.
    """

    def __init__(self, ticks: int, stuck: list[str]) -> None:
        self.ticks = ticks
        self.stuck = stuck
        preview = ", ".join(stuck[:8]) + (", ..." if len(stuck) > 8 else "")
        super().__init__(
            f"loop exceeded {ticks} ticks with {len(stuck)} task(s) "
            f"still in flight: {preview}"
        )


class WireScheduler:
    """Runs client tasks over a network's scheduled-delivery transport.

    Tasks are generators: each ``next()`` advances one to its next
    yield point.  At most ``max_active`` tasks are in flight; the rest
    wait in an admission queue and are started as slots free up, which
    is what bounds per-tick memory (and models a listen backlog).

    When more than one task may be in flight (``max_active > 1``), the
    network's :class:`~repro.netsim.events.DeliveryQueue` is active for
    the duration of :meth:`run`: sends on schedulable sockets enqueue
    instead of recursing, and the queue is drained to quiescence after
    every tick.  Because every server protocol answers within the
    drain, a client task that yields once after sending is guaranteed
    the complete reply (or the close) on resume — synchronous
    semantics, concurrent execution.  At ``max_active == 1`` nothing
    can interleave, so the queue stays inactive and sends are
    delivered synchronously.

    ``shuffle`` (a seeded :class:`random.Random`) randomises the order
    tasks are stepped within each tick — the determinism tests use it
    to prove results are interleaving-independent.
    """

    def __init__(
        self,
        network: "Network",
        max_active: int = 32,
        on_task_error: Callable[[Iterator, BaseException], None] | None = None,
        shuffle: random.Random | None = None,
    ) -> None:
        if max_active < 1:
            raise ValueError("max_active must be >= 1")
        self.network = network
        self.max_active = max_active
        self.on_task_error = on_task_error
        self.shuffle = shuffle
        self._pending: deque[tuple[Callable[[], Iterator], str | None]] = deque()
        self._active: deque[tuple[Iterator, str | None]] = deque()
        self.ticks = 0
        self.completed = 0
        self.task_failures = 0
        self.peak_active = 0

    def spawn(self, factory: Callable[[], Iterator], label: str | None = None) -> None:
        """Queue a task; ``factory()`` is called when it is admitted."""
        self._pending.append((factory, label))

    def _admit(self) -> None:
        while self._pending and len(self._active) < self.max_active:
            factory, label = self._pending.popleft()
            self._active.append((factory(), label))
        if len(self._active) > self.peak_active:
            self.peak_active = len(self._active)

    def _tick(self) -> None:
        """Step every active task once."""
        self._admit()
        self.ticks += 1
        batch = list(self._active)
        self._active.clear()
        if self.shuffle is not None:
            self.shuffle.shuffle(batch)
        for entry in batch:
            task, _label = entry
            try:
                next(task)
            except StopIteration:
                self.completed += 1
                continue
            except Exception as exc:
                # One faulty task must not kill the whole loop: count
                # it, run its cleanup, keep every other task ticking.
                self.task_failures += 1
                close = getattr(task, "close", None)
                if close is not None:
                    try:
                        close()
                    except Exception:
                        pass
                if self.on_task_error is not None:
                    self.on_task_error(task, exc)
                continue
            self._active.append(entry)
        self._admit()

    def run(self, deadline_ticks: int | None = None) -> int:
        """Drive all tasks to completion; returns loop ticks executed.

        ``deadline_ticks`` is the starvation guard: exceeding it raises
        :class:`LoopStarvation` naming the stuck tasks, which is what
        turns a task that spawns new work every tick from a hang into
        a diagnosis.
        """
        queue = self.network.queue
        queue.active = self.max_active > 1
        start = self.ticks
        try:
            while self._pending or self._active:
                if deadline_ticks is not None and self.ticks - start >= deadline_ticks:
                    stuck = [label or "?" for _, label in self._active]
                    raise LoopStarvation(self.ticks - start, stuck)
                self._tick()
                queue.drain()
        finally:
            queue.active = False
        return self.ticks - start
