"""Property-based tests: the engine's client-facing leg reads hellos as before.

The proxy engine's client-facing leg (:class:`repro.proxy.engine._MitmConnection`)
reads its client through :class:`repro.tls.codec.HandshakeReader`.  The
reference here keeps the intake it had before the reader: its own record
buffer, handshake buffer and the consumed records it replays to a relay.
For seed hellos and mutants of them, sent as they come or byte by byte,
to a product that intercepts, one that relays, one that blocks and a
mimicking TLS 1.3 product, the engine and the reference must send the
client the same bytes, open the same upstream connections with the same
bytes, log the same events, count the same and close the same way.
Neither may raise.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.keystore import KeyStore
from repro.netsim import Network
from repro.netsim.network import ConnectionRefused
from repro.proxy.engine import TlsProxyEngine, _MitmConnection
from repro.proxy.forger import SubstituteCertForger
from repro.proxy.profile import (
    ForgedUpstreamPolicy,
    ProxyCategory,
    ProxyProfile,
    UpstreamHelloPolicy,
)
from repro.tls import codec
from repro.tls.codec import ClientHello, TlsError
from repro.tls.fingerprint import BROWSER_PROFILES
from repro.tls.server import TlsCertServer
from repro.x509 import Name, RootStore
from repro.x509.ca import CertificateAuthority, SelfSignedParams
from repro.x509.model import SubjectPublicKeyInfo

HOSTNAME = "origin.example"
OTHER = "other.origin.example"

# --- the reference intake -------------------------------------------------


class ReferenceConnection(_MitmConnection):
    """The client-facing intake before HandshakeReader: its own record walk."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._buffer = b""
        self._consumed = b""
        self._handshake = b""

    def data_received(self, sock, data):
        self.engine._c_bytes_client_in.inc(len(data))
        if self._relay is not None:
            self._pump_relay(sock, data)
            return
        self._buffer += data
        try:
            records, rest = codec.decode_records(self._buffer)
        except TlsError:
            self._fatal(sock, codec.ALERT_HANDSHAKE_FAILURE)
            return
        if not self._done:
            self._consumed += self._buffer[: len(self._buffer) - len(rest)]
        self._buffer = rest
        for record in records:
            if record.content_type != codec.CONTENT_HANDSHAKE:
                continue
            self._handshake += record.payload
            messages, self._handshake = codec.decode_handshakes(self._handshake)
            for message in messages:
                if message.msg_type == codec.HS_CLIENT_HELLO and not self._done:
                    try:
                        hello = ClientHello.from_body(message.body)
                    except TlsError:
                        self._fatal(sock, codec.ALERT_HANDSHAKE_FAILURE)
                        return
                    self._handle_client_hello(sock, hello)
                    if self._relay is not None:
                        return
                    self._done = True
                    self._consumed = b""

    def _start_relay(self, sock, hello):
        try:
            self._relay = self.network.connect_upstream(
                self.engine.upstream_host, self.hostname, self.port
            )
        except ConnectionRefused:
            self._fatal(sock, codec.ALERT_HANDSHAKE_FAILURE)
            return
        replayed = self._consumed + self._buffer
        self._relay.send(replayed)
        self.engine._c_bytes_relayed.inc(len(replayed))
        self._consumed = b""
        self._buffer = b""
        self._drain_relay(sock)


class ReferenceEngine(TlsProxyEngine):
    def accept(self, network, client_sock, hostname, port):
        client_sock.protocol = ReferenceConnection(self, network, hostname, port)


class RecordingOrigin(TlsCertServer):
    """An origin that keeps every chunk each connection received."""

    def factory(self):
        clone = super().factory()
        clone.received = []
        self.connections.append(clone.received)
        return clone

    def data_received(self, sock, data):
        self.received.append(data)
        super().data_received(sock, data)


# --- seed-minted chain and products ---------------------------------------

_KEYS = KeyStore(seed=4444)
_ROOT = CertificateAuthority.self_signed(
    SelfSignedParams(
        subject=Name.build(common_name="Engine Root CA", organization="Engine Trust"),
        key=_KEYS.key("engine-root", 512),
    )
)
_LEAF_KEY = _KEYS.key("engine-leaf", 512)
CHAIN = [
    _ROOT.issue(
        Name.build(common_name=HOSTNAME),
        SubjectPublicKeyInfo(_LEAF_KEY.n, _LEAF_KEY.e),
        dns_names=[HOSTNAME, OTHER],
    ),
    _ROOT.certificate,
]
FORGER = SubstituteCertForger(_KEYS, seed=4444)


def _product(key, **posture):
    return ProxyProfile(
        key=key,
        issuer=Name.build(common_name=f"{key} CA", organization=key),
        category=ProxyCategory.BUSINESS_PERSONAL_FIREWALL,
        leaf_key_bits=512,
        ca_key_bits=512,
        **posture,
    )


# (profile, whether its upstream store trusts the origin's root)
PRODUCTS = (
    (_product("mutation-intercept"), True),
    (_product("mutation-relay", whitelist=frozenset({HOSTNAME})), True),
    (_product("mutation-block", forged_upstream=ForgedUpstreamPolicy.BLOCK), False),
    (
        _product(
            "mutation-mimic",
            upstream_hello=UpstreamHelloPolicy.MIMIC,
            max_tls_version=codec.TLS_1_3,
            substitute_cipher_suite=None,
        ),
        True,
    ),
)

# --- seed hellos ------------------------------------------------------------

KINDS = ("probe", "tls13", "fallback", *BROWSER_PROFILES)
randoms = st.binary(min_size=32, max_size=32)


@st.composite
def hellos(draw):
    """One hello record: the probe's, a browser's, a TLS 1.3 offer or a fallback."""
    kind = draw(st.sampled_from(KINDS))
    client_random = draw(randoms)
    name = draw(st.sampled_from((HOSTNAME, OTHER)))
    if kind == "probe":
        hello = ClientHello(client_random, server_name=name)
    elif kind == "tls13":
        hello = ClientHello(
            client_random,
            cipher_suites=(0x1301, 0x1302, 0x002F),
            extensions=(
                (codec.EXT_SERVER_NAME, codec.encode_sni_extension_body(name)),
                (
                    codec.EXT_SUPPORTED_VERSIONS,
                    codec.encode_supported_versions_body((codec.TLS_1_3, codec.TLS_1_2)),
                ),
                (codec.EXT_KEY_SHARE, codec.encode_key_share_body(((0x001D, bytes(32)),))),
            ),
        )
    elif kind == "fallback":
        hello = ClientHello(
            client_random,
            server_name=name,
            version=draw(st.sampled_from((codec.TLS_1_0, codec.TLS_1_1))),
            cipher_suites=(0x002F, codec.TLS_FALLBACK_SCSV),
        )
    else:
        session_id = draw(st.sampled_from((b"", bytes(range(32)))))
        hello = BROWSER_PROFILES[kind].client_hello(client_random, name, session_id)
    return codec.encode_handshake_record(hello, version=hello.version)


EDIT_KINDS = (
    "none", "flip", "truncate", "insert", "record-length", "handshake-length",
    "split", "records", "second-record", "second-message",
    "alert-before", "alert-after", "alert-between",
)
edits = st.tuples(
    st.sampled_from(EDIT_KINDS),
    st.integers(0, 1 << 20),
    st.binary(min_size=2, max_size=40),
)


def _record(like: bytes, payload: bytes) -> bytes:
    """A record with ``like``'s type and version carrying ``payload``."""
    return like[:3] + len(payload).to_bytes(2, "big") + payload


def apply_edit(record: bytes, edit) -> list[bytes]:
    """The chunks a client sends for one mutant of ``record``."""
    kind, position, data = edit
    message = record[5:]
    alert = bytes([codec.CONTENT_ALERT]) + record[1:3] + b"\x00\x02" + data[:2]
    if kind == "flip":
        at = position // 8 % len(record)
        return [record[:at] + bytes([record[at] ^ (1 << position % 8)]) + record[at + 1 :]]
    if kind == "truncate":
        return [record[: position % len(record)]]
    if kind == "insert":
        at = position % (len(record) + 1)
        return [record[:at] + data + record[at:]]
    if kind == "record-length":
        length = len(message) + 1 + position % 0x100
        return [record[:3] + length.to_bytes(2, "big") + message]
    if kind == "handshake-length":
        length = len(message) - 4 + 1 + position % 0x100
        return [record[:6] + length.to_bytes(3, "big") + record[9:]]
    if kind == "split":
        at = 1 + position % (len(record) - 1)
        return [record[:at], record[at:]]
    if kind == "records":
        at = 1 + position % (len(message) - 1)
        return [_record(record, message[:at]) + _record(record, message[at:])]
    if kind == "second-record":
        return [record + record]
    if kind == "second-message":
        return [_record(record, message + message)]
    if kind == "alert-before":
        return [alert + record]
    if kind == "alert-after":
        return [record + alert]
    if kind == "alert-between":
        at = 1 + position % (len(message) - 1)
        return [_record(record, message[:at]) + alert + _record(record, message[at:])]
    return [record]


def deliver(chunks: list[bytes], delivery: str) -> list[bytes]:
    """``chunks`` as sent, or each of their bytes in a send of its own."""
    if delivery == "bytes":
        return [chunk[at : at + 1] for chunk in chunks for at in range(len(chunk))]
    return chunks


def run(engine_cls, profile, trusted: bool, chunks: list[bytes], seed: int) -> tuple:
    """Send ``chunks`` through one engine; everything the client and the origin saw."""
    net = Network()
    client = net.add_host("client.example")
    origin = RecordingOrigin(CHAIN, rng=random.Random(seed), max_version=codec.TLS_1_3)
    origin.connections = []
    net.add_host(HOSTNAME).listen(443, origin.factory)
    engine = engine_cls(
        profile,
        FORGER,
        upstream_host=client,
        upstream_trust=RootStore([_ROOT.certificate] if trusted else []),
        rng=random.Random(seed),
    )
    client.add_interceptor(engine)
    sock = client.connect(HOSTNAME, 443)
    for chunk in chunks:
        if sock.closed:
            break
        sock.send(chunk)
    outcome = (
        sock.recv(),
        sock.closed,
        origin.connections,
        engine.events.to_dicts(),
        engine.metrics.deterministic_snapshot(),
    )
    sock.close()
    return outcome


# A host_name with a byte above 0x7F: the name parsed as "caf�.example",
# and every product that re-encodes the name upstream raised
# UnicodeEncodeError out of data_received.
NON_ASCII_SNI = codec.encode_handshake_record(
    ClientHello(bytes(32), server_name="cafe.example")
).replace(b"cafe.example", b"caf\xe9.example")


class TestEngineIntake:
    @given(
        record=hellos(),
        edit=edits,
        delivery=st.sampled_from(("as-sent", "as-sent", "bytes")),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(record=NON_ASCII_SNI, edit=("none", 0, b"\x00\x00"), delivery="as-sent", seed=1)
    @settings(max_examples=1000, deadline=None)
    def test_engine_and_reference_agree(self, record, edit, delivery, seed):
        chunks = deliver(apply_edit(record, edit), delivery)
        for profile, trusted in PRODUCTS:
            engine = run(TlsProxyEngine, profile, trusted, chunks, seed)
            reference = run(ReferenceEngine, profile, trusted, chunks, seed)
            assert engine == reference, profile.key
