"""Wire-path fault injection: an on-path relay hop plus a server hook.

:class:`FaultRelay` is a netsim :class:`Interceptor` meant for a
:class:`~repro.netsim.network.PathHop` on the client's access path to
the reporting server.  It models the consumer-network failure modes
the paper's clients actually lived behind: connections that never
reach the collector, resets mid-POST, truncated uploads, and flipped
bytes.  Only connections whose first bytes say ``POST /report`` are
ever faulted — ad fetches and Flash policy probes pass through
untouched, which keeps the study's policy/probe ledger (and therefore
``aggregate_signature()``) out of the blast radius.

Fault decisions, at the relay and at the server, are keyed on the
client host's name and that client's own report ordinal.  A client
sends its reports one at a time, so which report is faulted does not
depend on how a scheduler interleaves clients.  (Names, not IPs:
clients behind one egress share an IP.)

Kind semantics, chosen for exact accounting:

* ``connect-refused`` / ``reset`` — the relay never opens the upstream
  leg, so the server never sees the attempt; the client retries and
  delivery recovers without any server-side ledger change.
* ``truncate`` — the upstream leg sees a prefix and then a close, so
  the server's abandoned-request accounting fires (that is the point);
  delivery still recovers via client retry, but the failure ledger —
  and hence the signature — records the event.
* ``corrupt`` — one byte is XOR-flipped in flight; whatever the server
  makes of the damage (parse error, rejected report) stands.

:func:`server_fault_hook` covers the server-side kinds: injected 500s,
503+``Retry-After`` slow-downs and 429s, returned *before* the report
handler runs so an injected error never touches the database.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

from repro.faults.plan import FaultPlan
from repro.httpmin.codec import HttpRequest, HttpResponse
from repro.netsim.network import (
    ConnectionReset,
    Host,
    Interceptor,
    Network,
    Protocol,
    StreamSocket,
)
from repro.obs.metrics import MetricsRegistry

_REPORT_PREFIX = b"POST /report"


class FaultRelay(Interceptor):
    """On-path relay that injects wire faults into report submissions."""

    def __init__(
        self,
        plan: FaultPlan,
        registry: MetricsRegistry | None = None,
        hostname: str = "tlsresearch.byu.edu",
        port: int = 80,
    ) -> None:
        self.plan = plan
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.hostname = hostname
        self.port = port
        self._report_connections: Counter[str] = Counter()
        self.faulted_connections = 0

    def intercepts(self, hostname: str, port: int) -> bool:
        return hostname == self.hostname and port == self.port

    def accept(
        self,
        network: Network,
        client_sock: StreamSocket,
        hostname: str,
        port: int,
    ) -> None:
        client_sock.protocol = _RelayConnection(
            self, network, client_sock, hostname, port
        )

    def next_report_ordinal(self, client: str) -> int:
        """``client``'s report connections through this relay so far."""
        ordinal = self._report_connections[client]
        self._report_connections[client] = ordinal + 1
        return ordinal

    def count(self, kind: str) -> None:
        self.faulted_connections += 1
        self.metrics.inc("faults.injected", kind=kind)


class _RelayConnection(Protocol):
    """One relayed connection: classify, decide, forward (or not)."""

    def __init__(
        self,
        relay: FaultRelay,
        network: Network,
        client_sock: StreamSocket,
        hostname: str,
        port: int,
    ) -> None:
        self.relay = relay
        self.network = network
        self.client_sock = client_sock
        self.hostname = hostname
        self.port = port
        self.upstream: StreamSocket | None = None
        self._probe = b""
        self._decided = False
        self.mode: str | None = None
        self.cut_at = 0  # byte offset for reset/truncate/corrupt
        self.seen = 0  # original-stream bytes consumed
        self.forwarded = 0  # bytes actually sent upstream

    # -- classification --------------------------------------------------

    def data_received(self, sock: StreamSocket, data: bytes) -> None:
        if not self._decided:
            self._probe += data
            probe = self._probe
            if len(probe) < len(_REPORT_PREFIX) and _REPORT_PREFIX.startswith(probe):
                return  # could still be a report POST; wait for bytes
            self._decide(probe.startswith(_REPORT_PREFIX))
            data, self._probe = self._probe, b""
            if self.client_sock.closed:
                return
        self._feed(data)

    def _decide(self, is_report: bool) -> None:
        self._decided = True
        if not is_report:
            return  # ad/policy traffic: transparent passthrough
        plan = self.relay.plan
        client = self.client_sock.remote_host.hostname
        ordinal = self.relay.next_report_ordinal(client)
        site = ("wire", self.hostname, self.port, client, ordinal)
        for kind in ("connect-refused", "reset", "truncate", "corrupt"):
            if plan.fires(kind, *site):
                self.mode = kind
                break
        if self.mode == "connect-refused":
            self.relay.count("connect-refused")
            self.client_sock.close()
        elif self.mode == "reset":
            # Swallow a seeded number of bytes, then cut the client off;
            # the upstream leg is never opened.
            self.relay.count("reset")
            self.cut_at = plan.roll(256, "reset-at", *site)
        elif self.mode == "truncate":
            # Forward at least the request line (so the server's
            # abandoned accounting can classify the corpse), then stop.
            self.relay.count("truncate")
            self.cut_at = len(_REPORT_PREFIX) + 4 + plan.roll(256, "truncate-at", *site)
        elif self.mode == "corrupt":
            # Flip a byte well past the request line and headers: body
            # damage keeps the HTTP framing intact (the server reads a
            # complete request and rejects the broken PEM) instead of
            # wedging the exchange on a mangled Content-Length.
            self.cut_at = 256 + plan.roll(512, "corrupt-at", *site)

    # -- data path -------------------------------------------------------

    def _feed(self, data: bytes) -> None:
        if self.mode == "connect-refused":
            return  # already closed; drop anything in flight
        if self.mode == "reset":
            self.seen += len(data)
            if self.seen >= self.cut_at and not self.client_sock.closed:
                self.client_sock.close()
            return
        if self.mode == "truncate":
            keep = max(0, self.cut_at - self.forwarded)
            chopped = len(data) > keep
            data = data[:keep]
            if data:
                self._ensure_upstream()
                self.forwarded += len(data)
                try:
                    self.upstream.send(data)
                except ConnectionReset:
                    pass
            if chopped:
                # The corpse is complete: cut both legs so the server's
                # abandoned accounting fires and the client retries.
                if self.upstream is not None and not self.upstream.closed:
                    self.upstream.close()
                if not self.client_sock.closed:
                    self.client_sock.close()
            return
        if self.mode == "corrupt":
            offset = self.cut_at - self.forwarded
            if 0 <= offset < len(data):
                data = (
                    data[:offset]
                    + bytes([data[offset] ^ 0xFF])
                    + data[offset + 1 :]
                )
                self.relay.count("corrupt")
        self._ensure_upstream()
        self.forwarded += len(data)
        try:
            self.upstream.send(data)
        except ConnectionReset:
            if not self.client_sock.closed:
                self.client_sock.close()

    def _ensure_upstream(self) -> None:
        if self.upstream is not None:
            return
        src = self.client_sock.remote_host
        self.upstream = self.network.connect_upstream(src, self.hostname, self.port)
        self.upstream.protocol = _DownPipe(self.client_sock)

    def connection_lost(self, sock: StreamSocket) -> None:
        if self.upstream is not None and not self.upstream.closed:
            self.upstream.close()


class _DownPipe(Protocol):
    """Server→client direction: verbatim forwarding, close propagation."""

    def __init__(self, client_sock: StreamSocket) -> None:
        self.client_sock = client_sock

    def data_received(self, sock: StreamSocket, data: bytes) -> None:
        if not self.client_sock.closed:
            self.client_sock.send(data)

    def connection_lost(self, sock: StreamSocket) -> None:
        if not self.client_sock.closed:
            self.client_sock.close()


# -- server-side kinds ---------------------------------------------------

def server_fault_hook(
    plan: FaultPlan, registry: MetricsRegistry | None = None
) -> Callable[[HttpRequest, "Host | None"], HttpResponse | None]:
    """A ``ReportingServer.fault_hook``: inject 500/503/429 answers.

    Consulted before the report handler, so an injected error returns
    without touching the database or the store — the client's retry
    (which the injected ``Retry-After`` paces) delivers the report on a
    later ordinal and the end state matches the fault-free run exactly.
    Decisions are keyed on the requesting host's name and its own
    request ordinal (an unknown remote counts as one client, ``""``).
    """
    metrics = registry if registry is not None else MetricsRegistry()
    requests: Counter[str] = Counter()

    def hook(request: HttpRequest, remote: "Host | None") -> HttpResponse | None:
        client = remote.hostname if remote is not None else ""
        ordinal = requests[client]
        requests[client] = ordinal + 1
        if plan.fires("server-5xx", "server", client, ordinal):
            metrics.inc("faults.injected", kind="server-5xx")
            return HttpResponse(500, body=b"injected server fault")
        if plan.fires("server-slow", "server", client, ordinal):
            metrics.inc("faults.injected", kind="server-slow")
            pause = 1 + plan.roll(4, "server-slow", client, ordinal)
            return HttpResponse(
                503,
                headers={"Retry-After": str(pause)},
                body=b"injected slow server",
            )
        if plan.fires("429", "server", client, ordinal):
            metrics.inc("faults.injected", kind="429")
            return HttpResponse(
                429, headers={"Retry-After": "1"}, body=b"injected backpressure"
            )
        return None

    return hook
