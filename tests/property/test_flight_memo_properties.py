"""Property-based tests: the probe's flight memo changes no probe result.

The probe decodes a flight once per distinct byte string with the
server random blanked (``tls.flight_decode``).  For seed-minted flights
and mutants of them, the result of a cold probe (memo empty), of a warm
probe (memo filled by the cold one) and of the per-probe walk the memo
replaced must be equal, and no mutant may raise.  The reference walk
kept here is a copy of the probe's code before the memo.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.keystore import KeyStore
from repro.netsim import Network
from repro.netsim.network import Protocol
from repro.tls import codec
from repro.tls.codec import (
    Alert,
    Certificate as CertificateMessage,
    HandshakeMessage,
    ServerHello,
    TlsError,
)
from repro.tls.probe import ProbeClient, ProbeResult, _decode_flight
from repro.x509 import Name
from repro.x509.ca import CertificateAuthority, SelfSignedParams
from repro.x509.model import SubjectPublicKeyInfo
from repro.x509.parse import X509Error, parse_certificate

HOSTNAME = "flight.example"

# --- reference walk -------------------------------------------------------


def reference_result(flight: bytes) -> ProbeResult:
    """The probe's per-probe walk over the bytes received, before the memo."""

    def failed(error, **extra):
        return ProbeResult(False, HOSTNAME, 443, error=error, **extra)

    server_hello = None
    der_chain = None
    try:
        records, _ = codec.decode_records(flight)
        handshake_stream = b""
        for record in records:
            if record.content_type == codec.CONTENT_ALERT:
                alert = Alert.from_payload(record.payload)
                return failed(f"alert: level={alert.level} desc={alert.description}")
            if record.content_type == codec.CONTENT_HANDSHAKE:
                handshake_stream += record.payload
        messages, _ = codec.decode_handshakes(handshake_stream)
        for message in messages:
            if message.msg_type == codec.HS_SERVER_HELLO:
                server_hello = ServerHello.from_body(message.body)
            elif message.msg_type == codec.HS_CERTIFICATE:
                der_chain = codec.Certificate.from_body(message.body).der_chain
    except TlsError as exc:
        return failed(f"tls: {exc}")
    if der_chain is None:
        return failed("no Certificate message received", server_hello=server_hello)
    parsed = []
    for der in der_chain:
        try:
            parsed.append(parse_certificate(der))
        except X509Error as exc:
            return failed(f"x509: {exc}", der_chain=der_chain, server_hello=server_hello)
    return ProbeResult(
        True, HOSTNAME, 443, der_chain=der_chain, server_hello=server_hello, chain=tuple(parsed)
    )


def view(result: ProbeResult) -> tuple:
    """Everything a probe result carries, the parsed chain as its DER."""
    return (
        result.ok,
        result.error,
        result.der_chain,
        result.server_hello,
        tuple(certificate.raw for certificate in result.chain),
    )


def probe_flights(*flights: bytes) -> list[ProbeResult]:
    """Probe a site that answers the i-th connection with ``flights[i]``."""
    replies = iter(flights)

    class FlightServer(Protocol):
        def data_received(self, sock, data):
            sock.send(next(replies))

    net = Network()
    client = ProbeClient(net.add_host("client.example"))
    net.add_host(HOSTNAME).listen(443, FlightServer)
    return [client.probe(HOSTNAME) for _ in flights]


# --- seed-minted chains ---------------------------------------------------

_KEYS = KeyStore(seed=2222)
_ROOT = CertificateAuthority.self_signed(
    SelfSignedParams(
        subject=Name.build(common_name="Flight Root CA", organization="Flight Trust"),
        key=_KEYS.key("flight-root", 512),
    )
)
_INTERMEDIATE = _ROOT.issue_intermediate(
    Name.build(common_name="Flight Issuing CA", organization="Flight Trust"),
    _KEYS.key("flight-intermediate", 512),
)


def _leaf(issuer, name, label, **extra):
    key = _KEYS.key(label, 512)
    return issuer.issue(
        Name.build(common_name=name), SubjectPublicKeyInfo(key.n, key.e), **extra
    )


_LEAF = _leaf(_INTERMEDIATE, HOSTNAME, "flight-leaf", dns_names=[HOSTNAME])
_WILDCARD = _leaf(_ROOT, "*.flight.example", "flight-wild", dns_names=["*.flight.example"])
_OTHER = _leaf(_INTERMEDIATE, "other.example", "flight-other")
CHAINS = (
    (_LEAF.raw, _INTERMEDIATE.certificate.raw),
    (_WILDCARD.raw,),
    (_OTHER.raw, _INTERMEDIATE.certificate.raw, _ROOT.certificate.raw),
    (),
)

EXTENSION_VARIANTS = (
    None,
    (),
    ((codec.EXT_RENEGOTIATION_INFO, b"\x00"),),
    (
        (codec.EXT_SUPPORTED_VERSIONS, codec.encode_selected_version_body(codec.TLS_1_2)),
        (codec.EXT_ALPN, codec.encode_alpn_body(("http/1.1",))),
        (0x7A7A, b""),
    ),
)

randoms = st.binary(min_size=32, max_size=32)


@st.composite
def flights(draw):
    """A ServerHello-led flight: a seed-minted chain, or no Certificate."""
    hello = ServerHello(
        server_random=draw(randoms),
        cipher_suite=draw(st.sampled_from([0x002F, 0x0035, 0xC02F])),
        version=draw(st.sampled_from([codec.TLS_1_0, codec.TLS_1_1, codec.TLS_1_2])),
        session_id=draw(st.binary(max_size=32)),
        extensions=draw(st.sampled_from(EXTENSION_VARIANTS)),
    )
    messages = []
    if draw(st.integers(0, 4)):  # one flight in five has no Certificate
        messages.append(CertificateMessage(draw(st.sampled_from(CHAINS))))
    if draw(st.booleans()):
        messages.append(HandshakeMessage(codec.HS_SERVER_HELLO_DONE, b""))
    offered = draw(st.sampled_from([codec.TLS_1_0, codec.TLS_1_2]))
    return codec.encode_server_flight(hello, messages, offered)


def header_positions(flight: bytes) -> list[int]:
    """Offsets of every record header byte and the next four bytes."""
    positions = []
    offset = 0
    while offset + 5 <= len(flight):
        positions.extend(range(offset, min(offset + 9, len(flight))))
        offset += 5 + int.from_bytes(flight[offset + 3 : offset + 5], "big")
    return positions


EDIT_KINDS = ("none", "flip", "truncate", "insert", "header", "alert", "random")
edits = st.tuples(
    st.sampled_from(EDIT_KINDS),
    st.integers(0, 1 << 16),
    st.binary(min_size=1, max_size=40),
)


def apply_edit(flight: bytes, edit) -> bytes:
    kind, position, data = edit
    if kind == "flip":
        at = position // 8 % len(flight)
        return flight[:at] + bytes([flight[at] ^ (1 << position % 8)]) + flight[at + 1 :]
    if kind == "truncate":
        return flight[: position % len(flight)]
    if kind == "insert":
        at = position % (len(flight) + 1)
        return flight[:at] + data + flight[at:]
    if kind == "header":
        headers = header_positions(flight)
        at = headers[position % len(headers)]
        return flight[:at] + data[:1] + flight[at + 1 :]
    if kind == "alert":
        return flight + Alert(2, codec.ALERT_HANDSHAKE_FAILURE).encode_record()
    if kind == "random":
        return flight[:11] + data[:32].ljust(32, b"\x00") + flight[43:]
    return flight


# The bit flip that cuts the first leaf's critical basicConstraints
# Extension SEQUENCE from 12 to 8 bytes (0x0c ^ 0x04): the parser used
# to index past its BOOLEAN and the probe raised IndexError.
SEED_FLIGHT = codec.encode_server_flight(
    ServerHello(bytes(range(32)), 0x002F), [CertificateMessage(CHAINS[0])], codec.TLS_1_2
)
_LENGTH_AT = SEED_FLIGHT.index(bytes.fromhex("300c0603551d130101ff0402")) + 1


class TestFlightMemo:
    @given(flight=flights(), edit=edits)
    @example(flight=SEED_FLIGHT, edit=("flip", _LENGTH_AT * 8 + 2, b"\x00"))
    @example(flight=SEED_FLIGHT, edit=("alert", 0, b"\x00"))
    @settings(max_examples=300, deadline=None)
    def test_cold_warm_and_reference_agree(self, flight, edit):
        mutant = apply_edit(flight, edit)
        _decode_flight.cache_clear()
        cold, warm = probe_flights(mutant, mutant)
        assert view(cold) == view(warm) == view(reference_result(mutant))

    @given(flight=flights(), server_random=randoms)
    @settings(max_examples=100, deadline=None)
    def test_fresh_random_shares_the_entry_and_keeps_its_random(self, flight, server_random):
        again = flight[:11] + server_random + flight[43:]
        _decode_flight.cache_clear()
        first, second = probe_flights(flight, again)
        assert view(first) == view(reference_result(flight))
        assert view(second) == view(reference_result(again))
        assert second.server_hello.server_random == server_random
        assert _decode_flight.cache_info().hits == (1 if first.ok else 0)
