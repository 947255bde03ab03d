"""The certificate probe — the heart of the measurement tool.

Reproduces §3.2 of the paper: open a TCP connection, send a
ClientHello, record the ServerHello and Certificate messages that come
back, then abort the handshake.  Whatever certificate chain arrives is
what an on-path proxy wanted the client to see.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.netsim.events import drive, settle
from repro.netsim.network import ConnectionRefused, ConnectionReset, Host
from repro.obs.metrics import MetricsRegistry
from repro.tls import codec
from repro.tls.codec import Alert, ClientHello, ServerHello, TlsError
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

#: Where the client random sits in a hello record: after the record
#: header (5 bytes), the handshake header (4) and the legacy version (2).
_RANDOM_AT = 11


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
    return frame[:_RANDOM_AT] + client_random + frame[_RANDOM_AT + 32 :]


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
        self._rng = rng or random.Random(0xFACADE)
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

    def _handshake(
        self, sock, hostname: str, port: int, session_id: bytes = b""
    ) -> ProbeResult:
        client_random = self._rng.getrandbits(256).to_bytes(32, "big")
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
        server_hello: ServerHello | None = None
        der_chain: tuple[bytes, ...] | None = None
        try:
            records, _ = codec.decode_records(buffer)
            # Handshake messages may span record boundaries (RFC 5246
            # §6.2.1), so reassemble the handshake stream first.
            handshake_stream = b""
            for record in records:
                if record.content_type == codec.CONTENT_ALERT:
                    alert = Alert.from_payload(record.payload)
                    return self._failed(
                        hostname,
                        port,
                        "alert",
                        f"alert: level={alert.level} desc={alert.description}",
                    )
                if record.content_type == codec.CONTENT_HANDSHAKE:
                    handshake_stream += record.payload
            messages, _ = codec.decode_handshakes(handshake_stream)
            for message in messages:
                if message.msg_type == codec.HS_SERVER_HELLO:
                    server_hello = ServerHello.from_body(message.body)
                elif message.msg_type == codec.HS_CERTIFICATE:
                    cert_msg = codec.Certificate.from_body(message.body)
                    der_chain = cert_msg.der_chain
        except TlsError as exc:
            return self._failed(hostname, port, "tls", f"tls: {exc}")

        if der_chain is None:
            # Keep whatever ServerHello did arrive: the server-leg
            # audit grades a captured hello even when the flight is
            # otherwise incomplete.
            return self._failed(
                hostname,
                port,
                "no-certificate",
                "no Certificate message received",
                server_hello=server_hello,
            )

        # Parse every certificate; unparseable DER is itself a finding.
        parsed: list[Certificate] = []
        for der in der_chain:
            try:
                parsed.append(parse_certificate(der))
            except X509Error as exc:
                return self._failed(
                    hostname,
                    port,
                    "x509",
                    f"x509: {exc}",
                    der_chain=der_chain,
                    server_hello=server_hello,
                )
        # Abort: the tool closes without finishing the handshake (§3.2).
        self.metrics.inc("probe.ok")
        return ProbeResult(
            True,
            hostname,
            port,
            der_chain=der_chain,
            server_hello=server_hello,
            chain=tuple(parsed),
        )
