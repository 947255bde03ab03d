"""TLS certificate server.

A netsim protocol that performs the server half of the probe's partial
handshake: on ClientHello it answers with ServerHello, Certificate and
ServerHelloDone.  It can hold multiple chains keyed by SNI name (a real
server farm behind one IP), falling back to a default chain.
"""

from __future__ import annotations

import random

from repro.netsim.network import Protocol, StreamSocket
from repro.tls import codec
from repro.tls.codec import (
    Alert,
    Certificate as CertificateMessage,
    ClientHello,
    HandshakeMessage,
    Record,
    ServerHello,
    TlsError,
)
from repro.tls.fingerprint import (
    TLS13_CIPHER_SUITES,
    build_modern_server_extensions,
    negotiate_origin_cipher,
    origin_alpn_selection,
)
from repro.util import content_memo
from repro.x509.model import Certificate


#: Distinct ClientHello bodies whose parse is kept: the measurement
#: probe sends each site the same hello every time.
HELLO_CACHE_SIZE = 1024


@content_memo("tls.hello_cache", HELLO_CACHE_SIZE)
def _parse_client_hello(body: bytes) -> ClientHello:
    """The ClientHello in one handshake body; raises :class:`TlsError`."""
    return ClientHello.from_body(body)


def _handshake_failure(sock: StreamSocket) -> None:
    sock.send(Alert(2, codec.ALERT_HANDSHAKE_FAILURE).encode_record())
    sock.close()


class TlsCertServer(Protocol):
    """Serves a certificate chain to anyone that says ClientHello.

    The handshake intentionally stops after ServerHelloDone: the probe
    aborts there, and no measured behaviour depends on the key
    exchange.

    With ``max_version`` raised to TLS 1.3 the origin answers a
    1.3-offering client the modern way: legacy version frozen at
    0x0303, real version in supported_versions, key_share/ALPN/ticket
    answers via :func:`build_modern_server_extensions`, and RFC 7507
    fallback protection (a TLS_FALLBACK_SCSV offer below the origin's
    ceiling draws ``inappropriate_fallback``).
    """

    def __init__(
        self,
        chain: list[Certificate],
        sni_chains: dict[str, list[Certificate]] | None = None,
        cipher_suite: int = 0x002F,
        rng: random.Random | None = None,
        max_version: tuple[int, int] = codec.TLS_1_2,
    ) -> None:
        if not chain:
            raise ValueError("server needs at least one certificate")
        self.chain = chain
        self.sni_chains = sni_chains or {}
        self.cipher_suite = cipher_suite
        # Highest protocol version this origin speaks; older (or
        # downgraded) servers clamp the client's offer to it, which is
        # how the audit battery models protocol-downgrade origins.
        self.max_version = max_version
        self._rng = rng or random.Random(0x5EED)
        self._buffer = b""
        self.handshakes_served = 0

    def factory(self) -> "TlsCertServer":
        """Return a fresh per-connection protocol sharing this config."""
        clone = TlsCertServer(
            self.chain, self.sni_chains, self.cipher_suite, self._rng,
            self.max_version,
        )
        clone._parent = self  # type: ignore[attr-defined]
        return clone

    def chain_for(self, server_name: str | None) -> list[Certificate]:
        if server_name and server_name in self.sni_chains:
            return self.sni_chains[server_name]
        return self.chain

    # -- Protocol callbacks ----------------------------------------------

    def data_received(self, sock: StreamSocket, data: bytes) -> None:
        self._buffer += data
        try:
            records, self._buffer = codec.decode_records(self._buffer)
        except TlsError:
            _handshake_failure(sock)
            return
        for record in records:
            if record.content_type == codec.CONTENT_ALERT:
                sock.close()
                return
            if record.content_type != codec.CONTENT_HANDSHAKE:
                continue
            self._handle_handshake_payload(sock, record)

    def _handle_handshake_payload(self, sock: StreamSocket, record: Record) -> None:
        try:
            messages, _ = codec.decode_handshakes(record.payload)
            hellos = [
                _parse_client_hello(message.body)
                for message in messages
                if message.msg_type == codec.HS_CLIENT_HELLO
            ]
        except TlsError:
            _handshake_failure(sock)
            return
        for hello in hellos:
            self._answer_client_hello(sock, hello)

    def _answer_client_hello(self, sock: StreamSocket, hello: ClientHello) -> None:
        offered_max = hello.max_offered_version
        if codec.TLS_FALLBACK_SCSV in hello.cipher_suites and (
            offered_max < min(self.max_version, codec.TLS_1_2)
        ):
            # RFC 7507: the client signalled a fallback retry but this
            # origin speaks higher than it now offers — refuse.
            sock.send(
                Alert(2, codec.ALERT_INAPPROPRIATE_FALLBACK).encode_record()
            )
            sock.close()
            return
        server_random = self._rng.getrandbits(256).to_bytes(32, "big")
        if self.max_version >= codec.TLS_1_3 and offered_max >= codec.TLS_1_3:
            cipher = (
                self.cipher_suite
                if self.cipher_suite in TLS13_CIPHER_SUITES
                else negotiate_origin_cipher(hello, tls13=True)
            )
            server_hello = ServerHello(
                server_random=server_random,
                cipher_suite=cipher,
                version=codec.TLS_1_2,  # frozen legacy field (RFC 8446)
                session_id=hello.session_id,
                extensions=build_modern_server_extensions(
                    hello,
                    origin_alpn_selection(hello),
                    grant_session_ticket=True,
                ),
            )
        else:
            version = min(hello.version, self.max_version)
            server_hello = ServerHello(
                server_random=server_random,
                cipher_suite=self.cipher_suite,
                version=version,
            )
        chain = self.chain_for(hello.server_name)
        certificate = CertificateMessage(tuple(c.encode() for c in chain))
        done = HandshakeMessage(codec.HS_SERVER_HELLO_DONE, b"")
        sock.send(
            codec.encode_server_flight(
                server_hello, [certificate, done], offered_version=hello.version
            )
        )
        self.handshakes_served += 1
        parent = getattr(self, "_parent", None)
        if parent is not None:
            parent.handshakes_served += 1
