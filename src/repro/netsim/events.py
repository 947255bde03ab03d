"""Scheduled delivery: the transport event queue behind wire concurrency.

netsim historically delivered bytes by recursion — ``send()`` invoked
the peer protocol's ``data_received`` before returning — which made a
whole TLS handshake one synchronous call stack and capped wire mode at
one session at a time.  :class:`DeliveryQueue` breaks that stack: while
a scheduler holds the queue *active*, sends enqueue ``(socket, chunk)``
delivery events, queued connects enqueue their ``connection_made``,
and closes enqueue their ``connection_lost`` notifications, all
processed in strict FIFO order when the scheduler drains between
cooperative ticks.

Inactive (the default, the permanent state of any network no
scheduler touches, and the state a scheduler admitting one task at a
time leaves it in) the queue is invisible: delivery stays synchronous,
byte-for-byte identical to the recursive model, which is what keeps a
cap-1 wire study and every non-study consumer (audit harness, unit
tests) on direct calls.

Two tiny driver helpers round out the model: client state machines are
written once as generators that ``yield`` while awaiting bytes
(:func:`settle`), and :func:`drive` runs such a generator to
completion for callers that want the blocking call shape.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterator, TypeVar

if TYPE_CHECKING:
    from repro.netsim.network import Protocol, StreamSocket

T = TypeVar("T")

_DATA = 0
_CONNECT = 1
_CLOSE = 2


class DeliveryQueue:
    """FIFO of pending transport events for one :class:`Network`.

    Event order is the only scheduling state: a reply enqueued before a
    close is delivered before the close lands, exactly as in the
    synchronous model.  Deliveries addressed to a socket that closed
    while the event was in flight are dropped (and counted) — the
    synchronous model never observes that interleaving, so nothing may
    depend on it.
    """

    def __init__(self) -> None:
        self.active = False
        self._events: deque[tuple] = deque()
        self.delivered = 0  # data events handed to a live socket
        self.connects = 0
        self.closes = 0
        self.dropped = 0  # data events whose socket closed in flight
        self.max_depth = 0  # high-water queue depth

    def __len__(self) -> int:
        return len(self._events)

    @property
    def depth(self) -> int:
        return len(self._events)

    def _push(self, event: tuple) -> None:
        self._events.append(event)
        if len(self._events) > self.max_depth:
            self.max_depth = len(self._events)

    def push_data(self, sock: "StreamSocket", data: bytes) -> None:
        self._push((_DATA, sock, data))

    def push_connect(self, protocol: "Protocol", sock: "StreamSocket") -> None:
        self._push((_CONNECT, protocol, sock))

    def push_close(self, sock: "StreamSocket", peer: "StreamSocket | None") -> None:
        self._push((_CLOSE, sock, peer))

    def drain(self) -> int:
        """Process events until the queue is empty; returns the count.

        Handlers may enqueue further events (a server answering a
        delivery, a close cascading into a relay teardown); those are
        processed in the same drain, so one drain always reaches
        quiescence.
        """
        processed = 0
        while self._events:
            kind, a, b = self._events.popleft()
            processed += 1
            if kind == _DATA:
                self._deliver(a, b)
            elif kind == _CONNECT:
                self.connects += 1
                a.connection_made(b)
            else:
                self.closes += 1
                a._finish_close(b)
        return processed

    def _deliver(self, sock: "StreamSocket", data: bytes) -> None:
        if sock.closed:
            self.dropped += 1
            return
        self.delivered += 1
        if sock.protocol is not None:
            sock.protocol.data_received(sock, data)
        else:
            sock._rx.extend(data)


def settle(sock: "StreamSocket") -> Iterator[None]:
    """Yield once if ``sock`` rides a scheduled (queue-active) transport.

    Client state machines call ``yield from settle(sock)`` between a
    send and the matching ``recv()``: under a scheduler the yield lets
    the loop drain the queue (every reply the peer produces lands
    before the task resumes); on a synchronous transport it is a no-op,
    so the same generator body serves both execution modes.
    """
    queue = sock.queue
    if queue is not None and queue.active:
        yield


def drive(task: Iterator[T]) -> T:
    """Run a client generator to completion and return its result.

    The synchronous call shape: on an unscheduled transport the task's
    yields are free (nothing else wants the loop), so driving it inline
    performs exactly the work — and exactly the accounting — of the
    historical blocking implementation.
    """
    while True:
        try:
            next(task)
        except StopIteration as stop:
            return stop.value


__all__ = ["DeliveryQueue", "drive", "settle"]
