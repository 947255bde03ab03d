"""The certificate probe — the heart of the measurement tool.

Reproduces §3.2 of the paper: open a TCP connection, send a
ClientHello, record the ServerHello and Certificate messages that come
back, then abort the handshake.  Whatever certificate chain arrives is
what an on-path proxy wanted the client to see.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from repro.netsim.events import drive, settle
from repro.netsim.network import ConnectionRefused, ConnectionReset, Host
from repro.obs.metrics import MetricsRegistry
from repro.tls import codec
from repro.tls.codec import HELLO_RANDOM_AT, Alert, ClientHello, ServerHello, TlsError
from repro.util import content_memo
from repro.x509.model import Certificate
from repro.x509.parse import X509Error, parse_certificate

if TYPE_CHECKING:
    from repro.tls.fingerprint import BrowserProfile


#: Distinct (browser profile, hostname, session id) hello records the
#: probe keeps: it sends each site the same hello on every visit.  A
#: key whose hostname and session id are over 4 KiB (no DNS name is)
#: is framed afresh each time.  The profile is not counted: profiles
#: come from the fixed registry in :mod:`repro.tls.fingerprint`.
HELLO_FRAME_CACHE_SIZE = 4096

#: Distinct received flights, server random blanked, whose decode the
#: probe keeps: a site answers every probe with the same flight but for
#: its random.  A flight over 64 KiB is decoded afresh each time.
FLIGHT_DECODE_CACHE_SIZE = 256

#: The seed of the client random stream of a probe client built without
#: an rng, and the stream's first draw, which every such client sends on
#: its first probe: computed once, so a one-probe client seeds no
#: Mersenne Twister.
_DEFAULT_SEED = 0xFACADE
_FIRST_RANDOM = random.Random(_DEFAULT_SEED).getrandbits(256).to_bytes(32, "big")

#: The ServerHello's fields after its random (declared first), in
#: declaration order: the flight memo keeps their values, and each probe
#: passes them to the constructor behind its own random.
_HELLO_FIELDS = tuple(f.name for f in fields(ServerHello))[1:]


@content_memo(
    "tls.hello_frame", HELLO_FRAME_CACHE_SIZE, size=lambda key: len(key[1]) + len(key[2])
)
def _hello_frame(key: "tuple[BrowserProfile | None, str, bytes]") -> bytes:
    """The hello record for ``(browser profile, hostname, session id)``, random zeroed.

    With no profile it is the SNI-only hello.
    """
    browser, hostname, session_id = key
    if browser is None:
        hello = ClientHello(bytes(32), server_name=hostname, session_id=session_id)
    else:
        hello = browser.client_hello(bytes(32), hostname, session_id)
    return codec.encode_handshake_record(hello, version=hello.version)


def _hello_record(
    browser: "BrowserProfile | None", hostname: str, session_id: bytes, client_random: bytes
) -> bytes:
    """The probe's hello record: the memoised frame, random spliced in."""
    frame = _hello_frame((browser, hostname, session_id))
    return frame[:HELLO_RANDOM_AT] + client_random + frame[HELLO_RANDOM_AT + 32 :]


class FlightRefused(Exception):
    """A flight a client fails: its stage, error text and what it captured."""

    def __init__(self, stage: str, error: str, **captured) -> None:
        super().__init__(error)
        self.stage = stage
        self.captured = captured


def _handshake_messages(flight: bytes) -> list[codec.HandshakeMessage]:
    """The handshake messages in a received flight; an alert refuses it."""
    try:
        read = codec.HandshakeReader().feed(flight)
        for item in read:
            if isinstance(item, codec.Record):
                alert = Alert.from_payload(item.payload)
                raise FlightRefused(
                    "alert", f"alert: level={alert.level} desc={alert.description}"
                )
    except TlsError as exc:
        raise FlightRefused("tls", f"tls: {exc}")
    return read


def _read_messages(
    messages: list[codec.HandshakeMessage],
) -> tuple[ServerHello | None, tuple[bytes, ...], tuple[Certificate, ...]]:
    """The (last) ServerHello, the DER chain and the parsed chain."""
    server_hello: ServerHello | None = None
    der_chain: tuple[bytes, ...] | None = None
    try:
        for message in messages:
            if message.msg_type == codec.HS_SERVER_HELLO:
                server_hello = ServerHello.from_body(message.body)
            elif message.msg_type == codec.HS_CERTIFICATE:
                der_chain = codec.Certificate.from_body(message.body).der_chain
    except TlsError as exc:
        raise FlightRefused("tls", f"tls: {exc}")
    if der_chain is None:
        # Keep whatever ServerHello did arrive: the server-leg audit
        # grades a captured hello even when the flight is otherwise
        # incomplete.
        raise FlightRefused(
            "no-certificate",
            "no Certificate message received",
            server_hello=server_hello,
        )
    # Parse every certificate; unparseable DER is itself a finding.
    try:
        chain = tuple(parse_certificate(der) for der in der_chain)
    except X509Error as exc:
        raise FlightRefused(
            "x509", f"x509: {exc}", der_chain=der_chain, server_hello=server_hello
        )
    return server_hello, der_chain, chain


@content_memo("tls.flight_decode", FLIGHT_DECODE_CACHE_SIZE)
def _decode_flight(
    flight: bytes,
) -> tuple[tuple, tuple[bytes, ...], tuple[Certificate, ...]]:
    """:func:`_read_messages` of a flight led by its only ServerHello.

    The caller blanks that hello's random, so every visit to a site
    shares one entry; the hello is kept as its other fields' values.  A
    flight with a second ServerHello is refused: a client keeps the
    last hello, whose random is not blanked.
    """
    messages = _handshake_messages(flight)
    hellos = [message.msg_type for message in messages].count(codec.HS_SERVER_HELLO)
    if hellos > 1:
        raise FlightRefused("tls", "more than one ServerHello")
    hello, der_chain, chain = _read_messages(messages)
    return tuple(getattr(hello, name) for name in _HELLO_FIELDS), der_chain, chain


def read_flight(
    flight: bytes,
) -> tuple[ServerHello | None, tuple[bytes, ...], tuple[Certificate, ...]]:
    """What a client keeps of a received flight; raises :class:`FlightRefused`.

    The probe and the proxy engine's origin-facing leg both read here.
    A flight whose first record opens with a ServerHello and holds its
    whole random goes through :func:`_decode_flight` with the random
    blanked, and gets its own random back.  Any other flight, and any
    the memo refuses, is read from the bytes received, uncached, so a
    failure reports exactly what arrived.
    """
    end = HELLO_RANDOM_AT + 32
    # The 32 bytes at offset 11 are the random only when the first record's
    # payload and the ServerHello's body both reach past them.
    if (
        len(flight) >= end
        and flight[0] == codec.CONTENT_HANDSHAKE
        and int.from_bytes(flight[3:5], "big") >= end - 5
        and flight[5] == codec.HS_SERVER_HELLO
        and int.from_bytes(flight[6:9], "big") >= end - 9
    ):
        try:
            hello_fields, der_chain, chain = _decode_flight(
                flight[:HELLO_RANDOM_AT] + bytes(32) + flight[end:]
            )
        except FlightRefused:
            pass
        else:
            hello = ServerHello(flight[HELLO_RANDOM_AT:end], *hello_fields)
            return hello, der_chain, chain
    return _read_messages(_handshake_messages(flight))


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of one certificate probe."""

    ok: bool
    hostname: str
    port: int
    der_chain: tuple[bytes, ...] = ()
    server_hello: ServerHello | None = None
    error: str = ""
    chain: tuple[Certificate, ...] = field(default_factory=tuple)

    @property
    def leaf(self) -> Certificate | None:
        return self.chain[0] if self.chain else None


class ProbeClient:
    """Performs partial TLS handshakes from a client host.

    ``browser`` makes the probe impersonate one of the 2014-era
    browser profiles (:data:`repro.tls.fingerprint.BROWSER_PROFILES`)
    instead of the tool's plain SNI-only hello — what the mimicry
    audit probes with.
    """

    def __init__(
        self,
        host: Host,
        rng: random.Random | None = None,
        browser: "BrowserProfile | None" = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.host = host
        self.browser = browser
        self._rng = rng
        # No rng given and no random sent yet: the next is _FIRST_RANDOM.
        self._fresh = rng is None
        self.metrics = registry if registry is not None else MetricsRegistry()

    def probe(
        self, hostname: str, port: int = 443, session_id: bytes = b""
    ) -> ProbeResult:
        """Fetch the certificate chain presented for ``hostname:port``.

        ``session_id`` is presented in the ClientHello for resumption:
        the audit's resumption-honouring check hands back the id a
        product issued on an earlier probe and watches whether the
        substitute leg echoes it.
        """
        return drive(self.probe_task(hostname, port, session_id))

    def probe_task(self, hostname: str, port: int = 443, session_id: bytes = b""):
        """Resumable form of :meth:`probe`: a generator state machine.

        Yields while awaiting bytes on a scheduled transport, so a
        cooperative loop can interleave thousands of probes; on a
        synchronous network it completes without suspending.  Returns
        the :class:`ProbeResult` via ``StopIteration`` (use ``yield
        from`` or :func:`repro.netsim.events.drive`).
        """
        self.metrics.inc("probe.attempts")
        try:
            sock = self.host.connect(hostname, port)
        except ConnectionRefused as exc:
            return self._failed(hostname, port, "connect", f"connect: {exc}")
        try:
            return (yield from self._handshake(sock, hostname, port, session_id))
        finally:
            sock.close()

    def _failed(
        self, hostname: str, port: int, stage: str, error: str, **extra
    ) -> ProbeResult:
        self.metrics.inc("probe.failures", stage=stage)
        return ProbeResult(False, hostname, port, error=error, **extra)

    def _client_random(self) -> bytes:
        """The next draw of this client's random stream.

        Without an rng of its own, a client sends what a fresh
        ``random.Random(0xFACADE)`` draws, in order; the stream is seeded
        only for a second probe, past the first draw.
        """
        if self._fresh:
            self._fresh = False
            return _FIRST_RANDOM
        if self._rng is None:
            self._rng = random.Random(_DEFAULT_SEED)
            self._rng.getrandbits(256)  # sent as _FIRST_RANDOM
        return self._rng.getrandbits(256).to_bytes(32, "big")

    def _handshake(
        self, sock, hostname: str, port: int, session_id: bytes = b""
    ) -> ProbeResult:
        client_random = self._client_random()
        record = _hello_record(self.browser, hostname, session_id, client_random)
        try:
            sock.send(record)
        except ConnectionReset as exc:
            return self._failed(hostname, port, "send", f"send: {exc}")

        # Let the scheduler deliver the hello and the server's reply
        # flight; synchronous transports have already done both.
        yield from settle(sock)
        buffer = sock.recv()
        self.metrics.inc("probe.bytes_received", n=len(buffer))
        try:
            server_hello, der_chain, chain = read_flight(buffer)
        except FlightRefused as refused:
            return self._failed(
                hostname, port, refused.stage, str(refused), **refused.captured
            )
        # Abort: the tool closes without finishing the handshake (§3.2).
        self.metrics.inc("probe.ok")
        return ProbeResult(
            True,
            hostname,
            port,
            der_chain=der_chain,
            server_hello=server_hello,
            chain=chain,
        )
