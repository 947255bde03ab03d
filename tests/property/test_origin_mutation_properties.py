"""Property-based tests: the origin's reply templates change no reply.

A listener (:class:`repro.tls.server.TlsCertServer`) answers a hello
that matches one of its templates without decoding it, splicing a fresh
server random into the kept flight.  For seed-derived hello records and
mutants of them, a cold listener, a listener warmed by the unmutated
hello and a reference that always takes the full path must send the
same bytes, close the same way, count the same handshakes, leave their
rngs in the same state and raise nothing.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.keystore import KeyStore
from repro.netsim import Network
from repro.tls import codec
from repro.tls.codec import ClientHello
from repro.tls.fingerprint import BROWSER_PROFILES
from repro.tls.server import TlsCertServer
from repro.util import memo_counts
from repro.x509 import Name
from repro.x509.ca import CertificateAuthority, SelfSignedParams
from repro.x509.model import SubjectPublicKeyInfo

HOSTNAME = "origin.example"
OTHER = "other.origin.example"


class Walking(TlsCertServer):
    """The reference: its override sends every hello down the full path."""

    def _answer_client_hello(self, sock, hello):
        return super()._answer_client_hello(sock, hello)


# --- seed-minted chains ---------------------------------------------------

_KEYS = KeyStore(seed=3333)
_ROOT = CertificateAuthority.self_signed(
    SelfSignedParams(
        subject=Name.build(common_name="Origin Root CA", organization="Origin Trust"),
        key=_KEYS.key("origin-root", 512),
    )
)


def _leaf(name, label):
    key = _KEYS.key(label, 512)
    return _ROOT.issue(
        Name.build(common_name=name), SubjectPublicKeyInfo(key.n, key.e), dns_names=[name]
    )


CHAIN = [_leaf(HOSTNAME, "origin-leaf"), _ROOT.certificate]
SNI_CHAINS = {OTHER: [_leaf(OTHER, "origin-other")]}

# --- seed-derived hellos --------------------------------------------------

KINDS = ("probe", "session", "fallback", *BROWSER_PROFILES)
randoms = st.binary(min_size=32, max_size=32)


@st.composite
def hellos(draw):
    """One hello record: the probe's, a browser's, with a session id or a fallback."""
    kind = draw(st.sampled_from(KINDS))
    client_random = draw(randoms)
    name = draw(st.sampled_from((HOSTNAME, OTHER)))
    if kind == "probe":
        hello = ClientHello(client_random, server_name=name)
    elif kind == "session":
        session_id = draw(st.binary(min_size=1, max_size=32))
        hello = ClientHello(client_random, server_name=name, session_id=session_id)
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


# A 1.0 origin serves a fallback offer, a 1.2 origin refuses one below
# it, and a 1.3 origin answers the 2020 profiles the modern way.
origins = st.sampled_from((codec.TLS_1_0, codec.TLS_1_2, codec.TLS_1_3))

EDIT_KINDS = (
    "none", "flip", "truncate", "insert", "record-length", "handshake-length",
    "split", "records", "second-record", "second-message", "random",
)
edits = st.tuples(
    st.sampled_from(EDIT_KINDS),
    st.integers(0, 1 << 20),
    st.binary(min_size=1, max_size=40),
)


def _record(like: bytes, payload: bytes) -> bytes:
    """A record with ``like``'s type and version carrying ``payload``."""
    return like[:3] + len(payload).to_bytes(2, "big") + payload


def apply_edit(record: bytes, edit) -> list[bytes]:
    """The chunks a client sends for one mutant of ``record``."""
    kind, position, data = edit
    message = record[5:]
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
    if kind == "random":
        return [record[:11] + data[:32].ljust(32, b"\x00") + record[43:]]
    return [record]


# Two fallback offers in one send, below a 1.2 origin's ceiling: the
# origin used to answer the second on the socket it had closed for the
# first, and raised ConnectionReset out of data_received.
_FALLBACK_HELLO = ClientHello(
    bytes(32),
    server_name=HOSTNAME,
    version=codec.TLS_1_0,
    cipher_suites=(0x002F, codec.TLS_FALLBACK_SCSV),
)
FALLBACK = codec.encode_handshake_record(_FALLBACK_HELLO, version=codec.TLS_1_0)


def serve(listener: TlsCertServer, connections: list[list[bytes]]) -> tuple:
    """Send each connection's chunks; what each received, whether it closed, the count, the rng."""
    net = Network()
    client_host = net.add_host("client.example")
    net.add_host(HOSTNAME).listen(443, listener.factory)
    outcomes = []
    for chunks in connections:
        sock = client_host.connect(HOSTNAME, 443)
        for chunk in chunks:
            if sock.closed:
                break
            sock.send(chunk)
        outcomes.append((sock.recv(), sock.closed))
        sock.close()
    return outcomes, listener.handshakes_served, listener._rng.getstate()


class TestOriginTemplates:
    @given(record=hellos(), edit=edits, max_version=origins, seed=st.integers(0, 2**32 - 1))
    @example(record=FALLBACK, edit=("second-record", 0, b"\x00"), max_version=codec.TLS_1_2, seed=1)
    @example(record=FALLBACK, edit=("second-message", 0, b"\x00"), max_version=codec.TLS_1_2, seed=1)
    @settings(max_examples=1000, deadline=None)
    def test_cold_warm_and_reference_agree(self, record, edit, max_version, seed):
        mutant = apply_edit(record, edit)

        def run(cls, connections):
            listener = cls(
                CHAIN, sni_chains=SNI_CHAINS, rng=random.Random(seed), max_version=max_version
            )
            return serve(listener, connections)

        cold = [mutant]
        assert run(TlsCertServer, cold) == run(Walking, cold)
        warm = [[record], mutant, mutant]
        hits = memo_counts()["tls.reply_template.hits"]
        outcome = run(TlsCertServer, warm)
        warm_hits = memo_counts()["tls.reply_template.hits"] - hits
        assert outcome == run(Walking, warm)
        (base_reply, _closed), *_ = outcome[0]
        if edit[0] in ("none", "random") and base_reply[:1] == bytes([codec.CONTENT_HANDSHAKE]):
            # The same hello, its random aside: both mutant sends hit.
            assert warm_hits == 2
