"""Hosts, sockets, listeners and on-path interception."""

from __future__ import annotations

from typing import Callable

from repro.netsim.events import DeliveryQueue


class NetsimError(Exception):
    """Base class for simulated network errors."""


class ConnectionRefused(NetsimError):
    """No listener (or no such host) at the destination."""


class ConnectionReset(NetsimError):
    """The peer closed or the handler raised mid-connection."""


class Protocol:
    """Event-driven connection handler (the server side of a socket).

    Subclasses override the three callbacks.  ``connection_made``
    receives the server-side :class:`StreamSocket`; everything the
    client sends arrives via ``data_received``.
    """

    def connection_made(self, sock: "StreamSocket") -> None:  # noqa: B027
        """Called once when the connection is established."""

    def data_received(self, sock: "StreamSocket", data: bytes) -> None:  # noqa: B027
        """Called for every chunk of bytes from the peer."""

    def connection_lost(self, sock: "StreamSocket") -> None:  # noqa: B027
        """Called when the peer closes."""


class StreamSocket:
    """One endpoint of a bidirectional byte stream.

    A socket either *pushes* inbound bytes to a :class:`Protocol`
    (server side) or buffers them for :meth:`recv` (client side).
    """

    __slots__ = (
        "label",
        "peer",
        "protocol",
        "remote_host",
        "queue",
        "_rx",
        "closed",
        "_lost_notified",
        "bytes_sent",
    )

    def __init__(self, label: str = "", queue: DeliveryQueue | None = None) -> None:
        self.label = label
        self.peer: StreamSocket | None = None
        self.protocol: Protocol | None = None
        self.remote_host: "Host | None" = None  # who is on the other end
        # The network's transport event queue, when this socket was
        # opened on a schedulable path (client-entry connections).
        # ``None`` — or an inactive queue — means synchronous delivery.
        self.queue = queue
        self._rx = bytearray()
        self.closed = False
        self._lost_notified = False
        self.bytes_sent = 0

    # -- wiring ---------------------------------------------------------

    @staticmethod
    def pair(
        client_label: str,
        server_label: str,
        queue: DeliveryQueue | None = None,
    ) -> tuple["StreamSocket", "StreamSocket"]:
        client = StreamSocket(client_label, queue=queue)
        server = StreamSocket(server_label, queue=queue)
        client.peer = server
        server.peer = client
        return client, server

    # -- data path ------------------------------------------------------

    def send(self, data: bytes) -> None:
        """Deliver ``data`` to the peer (synchronously, or via the queue).

        With an active delivery queue the chunk is enqueued and lands
        when the scheduler drains; otherwise the peer sees it before
        this call returns — the historical reentrant model.
        """
        if self.closed:
            raise ConnectionReset(f"{self.label}: send on closed socket")
        if not data:
            return
        peer = self.peer
        if peer is None or peer.closed:
            raise ConnectionReset(f"{self.label}: peer is gone")
        self.bytes_sent += len(data)
        queue = self.queue
        if queue is not None and queue.active:
            queue.push_data(peer, bytes(data))
        elif peer.protocol is not None:
            peer.protocol.data_received(peer, bytes(data))
        else:
            peer._rx.extend(data)

    def recv(self, max_bytes: int | None = None) -> bytes:
        """Return buffered bytes (pull side only); empty if none pending."""
        if max_bytes is None or max_bytes >= len(self._rx):
            data = bytes(self._rx)
            self._rx.clear()
        else:
            data = bytes(self._rx[:max_bytes])
            del self._rx[:max_bytes]
        return data

    @property
    def pending(self) -> int:
        return len(self._rx)

    def close(self) -> None:
        """Close both directions; both protocols get ``connection_lost``.

        Close is symmetric: the peer's protocol *and* this side's own
        protocol (if any) are notified, each exactly once per socket
        lifetime — the closing side used to be skipped, which left
        server-side state (relay upstreams, abandoned-request
        accounting) dangling on self-close.  Under an active delivery
        queue the notifications are enqueued behind any bytes already
        in flight, so a "reply then close" server still lands its reply
        first; this side stops accepting sends immediately either way.
        """
        if self.closed:
            return
        self.closed = True
        queue = self.queue
        if queue is not None and queue.active:
            queue.push_close(self, self.peer)
        else:
            self._finish_close(self.peer)

    def _finish_close(self, peer: "StreamSocket | None") -> None:
        """Deliver the close: mark the peer dead, notify both sides."""
        if peer is not None:
            peer.closed = True
            peer._notify_lost()
        self._notify_lost()

    def _notify_lost(self) -> None:
        if self._lost_notified:
            return
        self._lost_notified = True
        if self.protocol is not None:
            self.protocol.connection_lost(self)


class Interceptor:
    """Base class for on-path middleboxes attached to a client host.

    When the host opens a connection, each interceptor is offered it in
    attachment order; the first whose :meth:`intercepts` returns True
    receives the server side of the client's socket and full control
    over what happens next (including opening its own upstream
    connection through ``network.connect_upstream``).
    """

    def intercepts(self, hostname: str, port: int) -> bool:
        raise NotImplementedError

    def accept(
        self,
        network: "Network",
        client_sock: StreamSocket,
        hostname: str,
        port: int,
    ) -> None:
        """Take over an intercepted connection.

        ``client_sock`` is the interceptor-side endpoint; assign its
        ``protocol`` to receive the client's bytes.
        """
        raise NotImplementedError


class PathHop:
    """One router on a client's path to the internet.

    Hops carry interceptors just like hosts do; an interceptor on a
    shared hop intercepts every client whose access path crosses it.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.interceptors: list[Interceptor] = []

    def add_interceptor(self, interceptor: Interceptor) -> None:
        self.interceptors.append(interceptor)

    def remove_interceptor(self, interceptor: Interceptor) -> None:
        self.interceptors = [i for i in self.interceptors if i is not interceptor]

    def __repr__(self) -> str:
        return f"PathHop({self.name!r})"


class Host:
    """A named endpoint with listeners and (for clients) interceptors."""

    def __init__(self, network: "Network", hostname: str, ip: str) -> None:
        self.network = network
        self.hostname = hostname
        self.ip = ip
        self.listeners: dict[int, Callable[[], Protocol]] = {}
        self.interceptors: list[Interceptor] = []
        # Compromised name resolution (the Sendori pattern, §5.1): maps
        # a requested hostname to the host actually connected to.  The
        # client still *believes* it reached the requested name — SNI
        # and certificate expectations are unchanged.
        self.dns_overrides: dict[str, str] = {}
        # Network path from this host to the wider internet: a list of
        # hops (access ISP, national gateway, transit, ...).  MitM
        # boxes attached to a hop intercept every client behind it —
        # the Iran/Syria national-gateway scenario of §1, and what
        # Crossbear-style localization (§8) triangulates against.
        self.access_path: list["PathHop"] = []

    def listen(self, port: int, protocol_factory: Callable[[], Protocol]) -> None:
        """Accept connections on ``port`` with a fresh Protocol per socket."""
        self.listeners[port] = protocol_factory

    def stop_listening(self, port: int) -> None:
        self.listeners.pop(port, None)

    def add_interceptor(self, interceptor: Interceptor) -> None:
        self.interceptors.append(interceptor)

    def remove_interceptor(self, interceptor: Interceptor) -> None:
        self.interceptors = [i for i in self.interceptors if i is not interceptor]

    def connect(self, hostname: str, port: int) -> StreamSocket:
        """Open a client connection, subject to this host's interceptors."""
        return self.network.connect(self, hostname, port)

    def __repr__(self) -> str:
        return f"Host({self.hostname!r}, {self.ip})"


class Network:
    """The simulated internet: a registry of hosts plus the connect path."""

    def __init__(self) -> None:
        self._hosts: dict[str, Host] = {}
        self._by_ip: dict[str, Host] = {}
        self._auto_ip = 0
        # Transport event queue for scheduled delivery.  Inactive until
        # a scheduler (netsim.loop.WireScheduler) takes over, so plain
        # networks keep the synchronous model unchanged.
        self.queue = DeliveryQueue()
        self.connections_opened = 0
        self.connections_refused = 0
        self.connections_intercepted = 0

    def add_host(self, hostname: str, ip: str | None = None) -> Host:
        if hostname in self._hosts:
            raise NetsimError(f"duplicate hostname {hostname!r}")
        if ip is None:
            self._auto_ip += 1
            ip = f"198.51.{(self._auto_ip >> 8) & 0xFF}.{self._auto_ip & 0xFF}"
        host = Host(self, hostname, ip)
        self._hosts[hostname] = host
        self._by_ip[ip] = host
        return host

    def host(self, hostname: str) -> Host:
        try:
            return self._hosts[hostname]
        except KeyError:
            raise ConnectionRefused(f"no such host {hostname!r}") from None

    def host_by_ip(self, ip: str) -> Host | None:
        return self._by_ip.get(ip)

    def host_or_none(self, hostname: str) -> Host | None:
        return self._hosts.get(hostname)

    def __contains__(self, hostname: str) -> bool:
        return hostname in self._hosts

    # -- connection establishment ----------------------------------------

    def connect(
        self, src: Host, hostname: str, port: int, *, queued: bool = True
    ) -> StreamSocket:
        """Connect from ``src``; interceptors on ``src`` get first claim.

        Name resolution happens first: a poisoned entry in the client's
        ``dns_overrides`` silently redirects the connection while the
        application layer keeps using the original hostname.

        ``queued`` marks the connection schedulable: its sockets carry
        the network's delivery queue, so a scheduler can interleave it
        with other client traffic.  Interceptors opening their own
        origin-facing legs pass ``queued=False`` (or use
        :meth:`connect_upstream` directly) — middlebox upstream
        handshakes stay synchronous inside one delivery event.
        """
        resolved = src.dns_overrides.get(hostname, hostname)
        for interceptor in src.interceptors:
            if interceptor.intercepts(hostname, port):
                self.connections_intercepted += 1
                return self._connect_via_interceptor(
                    interceptor, src, resolved, port, queued=queued
                )
        # On-path middleboxes beyond the client machine, nearest first.
        for hop in src.access_path:
            for interceptor in hop.interceptors:
                if interceptor.intercepts(hostname, port):
                    self.connections_intercepted += 1
                    return self._connect_via_interceptor(
                        interceptor, src, resolved, port, queued=queued
                    )
        return self.connect_upstream(src, resolved, port, queued=queued)

    def traceroute(self, src: Host, hostname: str) -> list[str]:
        """The hop names a packet from ``src`` to ``hostname`` traverses.

        What a Crossbear-style hunter records alongside the observed
        certificate; interceptors are of course not visible in it.
        """
        resolved = src.dns_overrides.get(hostname, hostname)
        return [src.hostname, *(hop.name for hop in src.access_path), resolved]

    def _connect_via_interceptor(
        self,
        interceptor: Interceptor,
        src: Host,
        hostname: str,
        port: int,
        *,
        queued: bool = False,
    ) -> StreamSocket:
        client_side, proxy_side = StreamSocket.pair(
            f"{src.hostname}->proxy",
            f"proxy<-{src.hostname}",
            queue=self.queue if queued else None,
        )
        proxy_side.remote_host = src
        # ``accept`` claims the socket (assigns its protocol) before
        # any client byte can be delivered, so it runs synchronously
        # even on a scheduled transport.
        interceptor.accept(self, proxy_side, hostname, port)
        self.connections_opened += 1
        return client_side

    def connect_upstream(
        self, src: Host, hostname: str, port: int, *, queued: bool = False
    ) -> StreamSocket:
        """Connect directly to the destination, bypassing interceptors.

        Used both for unintercepted client traffic and for the upstream
        leg an interceptor opens toward the origin server.  The default
        ``queued=False`` keeps those upstream legs synchronous — an
        interceptor's request/reply dance with the origin completes
        inside whatever event is currently being processed.
        """
        destination = self._hosts.get(hostname)
        if destination is None or port not in destination.listeners:
            self.connections_refused += 1
            raise ConnectionRefused(f"{hostname}:{port}")
        queue = self.queue if queued else None
        client_side, server_side = StreamSocket.pair(
            f"{src.hostname}->{hostname}:{port}",
            f"{hostname}:{port}<-{src.hostname}",
            queue=queue,
        )
        client_side.remote_host = destination
        server_side.remote_host = src
        protocol = destination.listeners[port]()
        server_side.protocol = protocol
        self.connections_opened += 1
        if queue is not None and queue.active:
            queue.push_connect(protocol, server_side)
        else:
            protocol.connection_made(server_side)
        return client_side
