"""TLS certificate server.

A netsim protocol that performs the server half of the probe's partial
handshake: on ClientHello it answers with ServerHello, Certificate and
ServerHelloDone.  It can hold multiple chains keyed by SNI name (a real
server farm behind one IP), falling back to a default chain.

A site answers every probe with the same flight but for its 32-byte
server random, so a listener keeps one reply template per distinct
ClientHello record, client random zeroed: the flight's bytes before and
after its server random.  A hello that arrives alone, in one whole
record, on a connection with nothing buffered and matches a template is
answered with a freshly drawn random spliced between them, with no
decode, parse, negotiation or framing.  Every other input is walked
afresh, and only a walk that answered such a hello with one flight is
kept.
"""

from __future__ import annotations

import random

from repro.netsim.network import Protocol, StreamSocket
from repro.tls import codec
from repro.tls.codec import (
    HELLO_RANDOM_AT,
    Alert,
    Certificate as CertificateMessage,
    ClientHello,
    HandshakeMessage,
    ServerHello,
    TlsError,
)
from repro.tls.fingerprint import (
    TLS13_CIPHER_SUITES,
    build_modern_server_extensions,
    negotiate_origin_cipher,
    origin_alpn_selection,
)
from repro.util import MEMO_KEY_BYTES, Memo
from repro.x509.model import Certificate

#: Distinct hello records whose reply one listener keeps, and the most
#: bytes such a record may have (``MEMO_KEY_BYTES // REPLY_TEMPLATES``, the
#: templates' key cap, checked before the record is copied).  A longer
#: hello is answered afresh every time and never kept.
REPLY_TEMPLATES = 1024
REPLY_TEMPLATE_KEY_BYTES = MEMO_KEY_BYTES // REPLY_TEMPLATES

_RANDOM_END = HELLO_RANDOM_AT + 32


def _template_key(data: bytes) -> bytes | None:
    """``data`` with its client random zeroed, or None if it is not one hello.

    It must be one whole handshake record, no longer than
    :data:`REPLY_TEMPLATE_KEY_BYTES`, holding exactly one ClientHello
    whose body reaches past the random.
    """
    size = len(data)
    if (
        _RANDOM_END <= size <= REPLY_TEMPLATE_KEY_BYTES
        and data[0] == codec.CONTENT_HANDSHAKE
        and int.from_bytes(data[3:5], "big") == size - 5
        and data[5] == codec.HS_CLIENT_HELLO
        and int.from_bytes(data[6:9], "big") == size - 9
    ):
        return data[:HELLO_RANDOM_AT] + bytes(32) + data[_RANDOM_END:]
    return None


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

    The listener's reply templates are shared by every clone
    :meth:`factory` makes and are keyed on the hello alone, so the chain,
    SNI map, cipher and version ceiling are fixed once it listens.  A
    subclass that overrides :meth:`_answer_client_hello` or
    :meth:`chain_for` keeps no templates and answers every hello itself.
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
        self._reader = codec.HandshakeReader()
        self.handshakes_served = 0
        self._parent: TlsCertServer | None = None
        # Hello record, client random zeroed -> the reply's bytes before
        # and after its server random.  Every clone shares this memo,
        # so it lives as long as the configuration it was made from.
        self._templates = Memo("tls.reply_template", REPLY_TEMPLATES)

    # A subclass that changes the reply sees every hello.
    _templated = True

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._templated = (
            cls._answer_client_hello is TlsCertServer._answer_client_hello
            and cls.chain_for is TlsCertServer.chain_for
        )

    def factory(self) -> "TlsCertServer":
        """Return a fresh per-connection protocol sharing this config."""
        clone = object.__new__(type(self))
        # Attribute by attribute, not copy.copy, as HttpServer.factory
        # does: a copied __dict__ makes every later attribute read slower.
        for name, value in vars(self).items():
            setattr(clone, name, value)
        clone._reader = codec.HandshakeReader()
        clone.handshakes_served = 0
        clone._parent = self
        return clone

    def chain_for(self, server_name: str | None) -> list[Certificate]:
        if server_name and server_name in self.sni_chains:
            return self.sni_chains[server_name]
        return self.chain

    # -- Protocol callbacks ----------------------------------------------

    def data_received(self, sock: StreamSocket, data: bytes) -> None:
        if not self._templated:
            self._walk(sock, data)
            return
        key = _template_key(data) if self._reader.idle else None
        template = self._templates.get(key)
        if template is not None:
            prefix, suffix = template
            sock.send(prefix + self._server_random() + suffix)
            self._served()
            return
        reply = self._walk(sock, data)
        if key is not None and reply is not None:
            server_random, flight = reply
            if flight[HELLO_RANDOM_AT:_RANDOM_END] == server_random:
                self._templates.put(
                    key, (flight[:HELLO_RANDOM_AT], flight[_RANDOM_END:])
                )

    def _walk(self, sock: StreamSocket, data: bytes) -> tuple[bytes, bytes] | None:
        """Decode, parse and answer ``data``: ``(server random, flight)`` of the last reply.

        None when the walk ended in an alert, a close or no reply.
        """
        try:
            read = self._reader.feed(data)
        except TlsError:
            _handshake_failure(sock)
            return None
        reply = None
        for item in read:
            if isinstance(item, codec.Record):  # an alert
                sock.close()
                return None
            if item.msg_type != codec.HS_CLIENT_HELLO:
                continue
            try:
                hello = ClientHello.from_body(item.body)
            except TlsError:
                _handshake_failure(sock)
                return None
            reply = self._answer_client_hello(sock, hello)
            if sock.closed:
                return None
        return reply

    def _server_random(self) -> bytes:
        return self._rng.getrandbits(256).to_bytes(32, "big")

    def _served(self) -> None:
        self.handshakes_served += 1
        if self._parent is not None:
            self._parent.handshakes_served += 1

    def _answer_client_hello(
        self, sock: StreamSocket, hello: ClientHello
    ) -> tuple[bytes, bytes] | None:
        """Send the reply to ``hello``: ``(server random, flight)``, or None for an alert."""
        if codec.refuses_fallback(hello, self.max_version):
            sock.send(
                Alert(2, codec.ALERT_INAPPROPRIATE_FALLBACK).encode_record()
            )
            sock.close()
            return None
        server_random = self._server_random()
        if (
            self.max_version >= codec.TLS_1_3
            and hello.max_offered_version >= codec.TLS_1_3
        ):
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
        flight = codec.encode_server_flight(
            server_hello, [certificate, done], offered_version=hello.version
        )
        sock.send(flight)
        self._served()
        return server_random, flight
