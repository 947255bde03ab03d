"""Routing HTTP server as a netsim protocol."""

from __future__ import annotations

from typing import Callable

from repro.httpmin.codec import HttpError, HttpRequest, HttpResponse
from repro.netsim.network import Host, Protocol, StreamSocket
from repro.obs.metrics import MetricsRegistry

# Handlers receive the request and the remote host (None if unknown),
# mirroring how a real server reads the client address off the socket.
Handler = Callable[[HttpRequest, "Host | None"], HttpResponse]


class HttpServer(Protocol):
    """Dispatches requests to handlers registered per (method, path).

    One instance can serve many connections via :meth:`factory`; routes
    and the metrics registry are shared, per-connection parse state is
    not.  ``requests_handled``/``parse_errors`` are live views onto the
    registry's counters, so every connection's traffic aggregates on
    the template instance exactly as before.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._routes: dict[tuple[str, str], Handler] = {}
        self._buffer = b""
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._c_requests = self.metrics.counter("http.requests_handled")
        self._c_parse_errors = self.metrics.counter("http.parse_errors")
        self._c_unrouted = self.metrics.counter("http.unrouted")
        self._c_abandoned = self.metrics.counter("http.requests_abandoned")
        self._c_bytes_in = self.metrics.counter("http.bytes_in")
        # Called with the undecodable tail when a connection closes
        # mid-request — the hook the reporting server uses to count a
        # report that died before it ever parsed.
        self.on_abandoned: Callable[[bytes], None] | None = None

    def route(self, method: str, path: str, handler: Handler) -> None:
        self._routes[(method.upper(), path)] = handler

    def factory(self) -> "HttpServer":
        """A fresh connection sharing this template's routes, hook and
        counter handles; only the parse buffer is its own."""
        connection = object.__new__(HttpServer)
        # Attribute by attribute, not copy.copy: a copied __dict__ makes
        # every later attribute read on the connection slower.
        for name, value in vars(self).items():
            setattr(connection, name, value)
        connection._buffer = b""
        return connection

    @property
    def requests_handled(self) -> int:
        return self._c_requests.value

    @property
    def parse_errors(self) -> int:
        return self._c_parse_errors.value

    @property
    def requests_abandoned(self) -> int:
        return self._c_abandoned.value

    # -- Protocol callbacks ----------------------------------------------

    def data_received(self, sock: StreamSocket, data: bytes) -> None:
        self._c_bytes_in.inc(len(data))
        self._buffer += data
        while True:
            try:
                request, self._buffer = HttpRequest.try_decode(self._buffer)
            except HttpError:
                self._buffer = b""
                self._c_parse_errors.inc()
                sock.send(HttpResponse(400).encode())
                sock.close()
                return
            if request is None:
                return
            self._dispatch(sock, request)
            if sock.closed:
                return

    def connection_lost(self, sock: StreamSocket) -> None:
        # Bytes arrived but never completed a request: without this, a
        # request truncated mid-body vanishes without a trace once the
        # peer closes.
        if self._buffer:
            self._c_abandoned.inc()
            if self.on_abandoned is not None:
                self.on_abandoned(self._buffer)
            self._buffer = b""

    def _dispatch(self, sock: StreamSocket, request: HttpRequest) -> None:
        handler = self._routes.get((request.method.upper(), request.path))
        if handler is None:
            self._c_unrouted.inc()
            sock.send(HttpResponse(404).encode())
            return
        try:
            response = handler(request, sock.remote_host)
        except Exception as exc:  # handler bug → 500, like a real server
            response = HttpResponse(500, body=str(exc).encode("utf-8"))
        sock.send(response.encode())
        self._c_requests.inc()
