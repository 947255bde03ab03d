"""Regression tests for the wire-engine correctness fixes.

Covers the three bugs fixed alongside the fingerprinting work: the
MitM connection's record buffer never being trimmed (quadratic
re-decoding on split delivery), ``decode_records`` aborting on
ChangeCipherSpec, and the whitelisted relay dropping buffered upstream
data by pumping a single ``recv()`` at a time.
"""

import pytest

from repro.crypto.keystore import KeyStore
from repro.netsim import Network
from repro.netsim.network import Protocol
from repro.proxy.engine import TlsProxyEngine
from repro.proxy.forger import SubstituteCertForger
from repro.proxy.profile import ProxyCategory, ProxyProfile
from repro.tls import codec
from repro.tls.codec import ClientHello, Record, TlsError
from repro.tls.probe import ProbeClient
from repro.tls.server import TlsCertServer
from repro.x509 import Name, RootStore
from repro.x509.model import SubjectPublicKeyInfo


@pytest.fixture(scope="module")
def forger():
    return SubstituteCertForger(KeyStore(seed=99), seed=99)


@pytest.fixture(scope="module")
def origin_chain(intermediate_ca, keystore):
    key = keystore.key("wirefix-site", 512)
    leaf = intermediate_ca.issue(
        Name.build(common_name="wire.example", organization="WireFix"),
        SubjectPublicKeyInfo(key.n, key.e),
        dns_names=["wire.example"],
    )
    return [leaf, intermediate_ca.certificate]


def make_profile(**overrides):
    base = dict(
        key="wirefix-product",
        issuer=Name.build(common_name="WireFix CA", organization="WireFix"),
        category=ProxyCategory.BUSINESS_PERSONAL_FIREWALL,
        leaf_key_bits=1024,
        hash_name="sha1",
    )
    base.update(overrides)
    return ProxyProfile(**base)


def proxied_world(profile, origin_chain, trust, forger):
    network = Network()
    client = network.add_host("victim.example")
    origin = network.add_host("wire.example", ip="203.0.113.99")
    origin.listen(443, TlsCertServer(origin_chain).factory)
    engine = TlsProxyEngine(
        profile, forger, upstream_host=client, upstream_trust=trust
    )
    client.add_interceptor(engine)
    return network, client, engine


class TestCcsTolerance:
    def test_decode_records_tolerates_change_cipher_spec(self):
        stream = (
            Record(codec.CONTENT_CHANGE_CIPHER_SPEC, (3, 3), b"\x01").encode()
            + Record(codec.CONTENT_HANDSHAKE, (3, 3), b"\x00" * 4).encode()
        )
        records, rest = codec.decode_records(stream)
        assert rest == b""
        assert [r.content_type for r in records] == [20, 22]

    def test_decode_records_tolerates_heartbeat(self):
        stream = Record(codec.CONTENT_HEARTBEAT, (3, 3), b"\x01\x00\x00").encode()
        records, _ = codec.decode_records(stream)
        assert records[0].content_type == codec.CONTENT_HEARTBEAT

    def test_non_tls_garbage_still_aborts(self):
        with pytest.raises(TlsError):
            codec.decode_records(b"\x99\x99not tls at all")

    def test_probe_survives_ccs_in_server_flight(
        self, origin_chain
    ):
        """A realistic origin appends CCS after its certificate flight;
        the probe must still extract the chain instead of dying."""

        class CcsAppendingServer(TlsCertServer):
            def _answer_client_hello(self, sock, hello):
                super()._answer_client_hello(sock, hello)
                sock.send(
                    Record(
                        codec.CONTENT_CHANGE_CIPHER_SPEC, (3, 3), b"\x01"
                    ).encode()
                )

        network = Network()
        client = network.add_host("client.example")
        origin = network.add_host("wire.example")
        origin.listen(443, CcsAppendingServer(origin_chain).factory)
        result = ProbeClient(client).probe("wire.example", 443)
        assert result.ok, result.error
        assert result.der_chain[0] == origin_chain[0].encode()


class TestUpstreamHelloVersion:
    def test_own_stack_caps_at_client_offer(self, forger, origin_chain, root_ca):
        """A pre-1.2 client must not be 'upgraded' upstream: the
        own-stack version is a cap, not a floor."""
        network, client, engine = proxied_world(
            make_profile(), origin_chain, RootStore([root_ca.certificate]), forger
        )
        sock = client.connect("wire.example", 443)
        hello = ClientHello(
            client_random=bytes(32), server_name="wire.example", version=(3, 1)
        )
        sock.send(codec.encode_handshake_record(hello, version=(3, 1)))
        assert engine.last_upstream_hello is not None
        assert engine.last_upstream_hello.version == (3, 1)

    def test_pre_extension_stack_sends_no_block_and_no_sni(
        self, forger, origin_chain, root_ca
    ):
        """own_extension_types=() models a pre-extension stack: the
        upstream hello must carry neither SNI nor an extensions block."""
        network, client, engine = proxied_world(
            make_profile(own_extension_types=()),
            origin_chain,
            RootStore([root_ca.certificate]),
            forger,
        )
        sock = client.connect("wire.example", 443)
        hello = ClientHello(client_random=bytes(32), server_name="wire.example")
        sock.send(codec.encode_handshake_record(hello))
        upstream = engine.last_upstream_hello
        assert upstream is not None
        assert upstream.extensions is None
        assert upstream.server_name is None
        # Lossless re-encode shows no trailing extensions block.
        body = upstream.to_handshake().body
        assert ClientHello.from_body(body).extensions is None


class TestServedHelloWire:
    def test_server_hello_record_uses_client_offered_version(
        self, forger, origin_chain, root_ca
    ):
        """Regression: _serve_chain framed the whole flight — the
        ServerHello record included — with the post-negotiation
        version.  The ServerHello travels before negotiation
        completes, so its record must carry the record-layer version
        the client offered; only the rest of the flight speaks the
        negotiated version."""
        network, client, engine = proxied_world(
            make_profile(substitute_tls_version=(3, 1)),
            origin_chain,
            RootStore([root_ca.certificate]),
            forger,
        )
        sock = client.connect("wire.example", 443)
        hello = ClientHello(
            client_random=bytes(32), server_name="wire.example", version=(3, 3)
        )
        sock.send(codec.encode_handshake_record(hello, version=(3, 3)))
        records, rest = codec.decode_records(sock.recv())
        assert rest == b""
        # Pre-negotiation: the client's offered record-layer version.
        assert records[0].version == (3, 3)
        first, _ = codec.decode_handshakes(records[0].payload)
        assert first[0].msg_type == codec.HS_SERVER_HELLO
        served = codec.ServerHello.from_body(first[0].body)
        assert served.version == (3, 1)  # the negotiated downgrade
        # Post-negotiation records speak the negotiated version.
        assert all(record.version == (3, 1) for record in records[1:])
        assert len(records) > 1

    def test_engine_records_last_served_hello(
        self, forger, origin_chain, root_ca
    ):
        network, client, engine = proxied_world(
            make_profile(
                substitute_cipher_suite=0xC013,
                own_server_extension_types=(codec.EXT_RENEGOTIATION_INFO,),
            ),
            origin_chain,
            RootStore([root_ca.certificate]),
            forger,
        )
        assert engine.last_served_hello is None
        sock = client.connect("wire.example", 443)
        hello = ClientHello(
            client_random=bytes(32),
            server_name="wire.example",
            extensions=(
                (codec.EXT_SERVER_NAME,
                 codec.encode_sni_extension_body("wire.example")),
                (codec.EXT_RENEGOTIATION_INFO, b"\x00"),
            ),
        )
        sock.send(codec.encode_handshake_record(hello))
        served = engine.last_served_hello
        assert served is not None
        assert served.cipher_suite == 0xC013
        assert served.extension_types == (codec.EXT_RENEGOTIATION_INFO,)
        # What the engine recorded is byte-for-byte what went on the
        # wire (the codec is lossless in both directions).
        records, _ = codec.decode_records(sock.recv())
        first, _ = codec.decode_handshakes(records[0].payload)
        assert codec.ServerHello.from_body(first[0].body) == served

    def test_echo_session_policy_returns_client_session_id(
        self, forger, origin_chain, root_ca
    ):
        from repro.proxy.profile import ServerSessionPolicy

        network, client, engine = proxied_world(
            make_profile(server_session_id=ServerSessionPolicy.ECHO),
            origin_chain,
            RootStore([root_ca.certificate]),
            forger,
        )
        sock = client.connect("wire.example", 443)
        offered_id = bytes(range(16))
        hello = ClientHello(
            client_random=bytes(32),
            server_name="wire.example",
            session_id=offered_id,
        )
        sock.send(codec.encode_handshake_record(hello))
        served = engine.last_served_hello
        assert served is not None
        assert served.session_id == offered_id
        # NONE (the default) serves an empty id for the same offer.
        network2, client2, engine2 = proxied_world(
            make_profile(),
            origin_chain,
            RootStore([root_ca.certificate]),
            forger,
        )
        sock2 = client2.connect("wire.example", 443)
        sock2.send(codec.encode_handshake_record(hello))
        assert engine2.last_served_hello is not None
        assert engine2.last_served_hello.session_id == b""

    def test_server_extensions_filtered_to_client_offer(
        self, forger, origin_chain, root_ca
    ):
        """A product configured to answer extensions the client never
        offered must not invent them on the wire."""
        network, client, engine = proxied_world(
            make_profile(
                own_server_extension_types=(
                    codec.EXT_RENEGOTIATION_INFO,
                    codec.EXT_SESSION_TICKET,
                ),
            ),
            origin_chain,
            RootStore([root_ca.certificate]),
            forger,
        )
        sock = client.connect("wire.example", 443)
        # SNI-only offer: no renegotiation_info, no session ticket.
        hello = ClientHello(client_random=bytes(32), server_name="wire.example")
        sock.send(codec.encode_handshake_record(hello))
        served = engine.last_served_hello
        assert served is not None
        assert served.extensions is None


class TestBufferTrim:
    def test_split_client_hello_served_once(
        self, forger, origin_chain, root_ca
    ):
        """A ClientHello delivered byte-by-byte must produce exactly one
        served flight, and the connection buffer must not retain the
        already-decoded records."""
        network, client, engine = proxied_world(
            make_profile(), origin_chain, RootStore([root_ca.certificate]), forger
        )
        sock = client.connect("wire.example", 443)
        hello = ClientHello(client_random=bytes(32), server_name="wire.example")
        wire = codec.encode_handshake_record(hello)
        for index in range(len(wire)):
            sock.send(wire[index : index + 1])
        flight = sock.recv()
        records, rest = codec.decode_records(flight)
        assert rest == b""
        assert engine.intercepted == 1
        connection = sock.peer.protocol
        assert connection._reader.pending == b""

    def test_hello_fragmented_across_records_served(
        self, forger, origin_chain, root_ca
    ):
        """One handshake message split over two TLS records (RFC 5246
        §6.2.1) must reassemble and be served, not dropped."""
        network, client, engine = proxied_world(
            make_profile(), origin_chain, RootStore([root_ca.certificate]), forger
        )
        sock = client.connect("wire.example", 443)
        hello = ClientHello(client_random=bytes(32), server_name="wire.example")
        message = hello.to_handshake().encode()
        middle = len(message) // 2
        for part in (message[:middle], message[middle:]):
            sock.send(Record(codec.CONTENT_HANDSHAKE, (3, 3), part).encode())
        flight = sock.recv()
        assert flight and not sock.closed
        records, _ = codec.decode_records(flight)
        assert records[0].content_type == codec.CONTENT_HANDSHAKE
        assert engine.intercepted == 1

    def test_intercepted_connection_drops_replay_copy(
        self, forger, origin_chain, root_ca
    ):
        """Once the hello is answered (no relay), the raw replay bytes
        must not be retained for the connection's lifetime."""
        network, client, engine = proxied_world(
            make_profile(), origin_chain, RootStore([root_ca.certificate]), forger
        )
        sock = client.connect("wire.example", 443)
        hello = ClientHello(client_random=bytes(32), server_name="wire.example")
        sock.send(codec.encode_handshake_record(hello))
        connection = sock.peer.protocol
        assert engine.intercepted == 1
        assert connection._received == b""

    def test_buffer_trimmed_between_chunks(
        self, forger, origin_chain, root_ca
    ):
        """After each complete record the buffer holds only the unparsed
        tail — the quadratic re-decode regression."""
        network, client, engine = proxied_world(
            make_profile(), origin_chain, RootStore([root_ca.certificate]), forger
        )
        sock = client.connect("wire.example", 443)
        connection = sock.peer.protocol
        hello = ClientHello(client_random=bytes(32), server_name="wire.example")
        wire = codec.encode_handshake_record(hello)
        sock.send(wire)
        assert connection._reader.pending == b""
        # A trailing half-record stays buffered; the decoded part does not.
        extra = Record(codec.CONTENT_APPLICATION_DATA, (3, 3), b"xyz").encode()
        sock.send(extra[:4])
        assert connection._reader.pending == extra[:4]
        sock.send(extra[4:])
        assert connection._reader.pending == b""


class _MultiSendOrigin(Protocol):
    """An origin whose reply spans several sends, plus a CCS record.

    Stands in for a real server flight crossing TCP segment
    boundaries: the relay must forward every byte, not the first
    ``recv()``'s worth.
    """

    def __init__(self, chunks):
        self.chunks = chunks

    def factory(self):
        return _MultiSendOrigin(self.chunks)

    def data_received(self, sock, data):
        for chunk in self.chunks:
            sock.send(chunk)


class TestUpstreamAlert:
    """The engine's origin-facing leg reads the reply as the probe does: an alert refuses it."""

    @pytest.mark.parametrize("position", ["before", "after"])
    def test_alert_in_origin_flight_is_an_upstream_failure(
        self, forger, origin_chain, root_ca, position
    ):
        server = TlsCertServer(origin_chain)
        flight = []

        class RecordingSocket:
            def send(self, data):
                flight.append(data)

        server._answer_client_hello(
            RecordingSocket(), ClientHello(client_random=bytes(32))
        )
        alert = codec.Alert(2, codec.ALERT_HANDSHAKE_FAILURE).encode_record()
        chunks = [alert, *flight] if position == "before" else [*flight, alert]
        network = Network()
        client = network.add_host("victim.example")
        network.add_host("wire.example").listen(443, _MultiSendOrigin(chunks).factory)
        engine = TlsProxyEngine(
            make_profile(),
            forger,
            upstream_host=client,
            upstream_trust=RootStore([root_ca.certificate]),
        )
        client.add_interceptor(engine)

        sock = client.connect("wire.example", 443)
        hello = ClientHello(client_random=bytes(32), server_name="wire.example")
        sock.send(codec.encode_handshake_record(hello))
        records, _ = codec.decode_records(sock.recv())
        assert [record.content_type for record in records] == [codec.CONTENT_ALERT]
        assert codec.Alert.from_payload(records[0].payload).description == (
            codec.ALERT_HANDSHAKE_FAILURE
        )
        assert (engine.upstream_failures, engine.intercepted) == (1, 0)


class TestRelayDrain:
    def test_whitelisted_relay_forwards_multi_record_reply(
        self, forger, origin_chain, root_ca
    ):
        server = TlsCertServer(origin_chain)
        flight_chunks = []

        class RecordingSocket:
            def send(self, data):
                flight_chunks.append(data)

        server._answer_client_hello(
            RecordingSocket(), ClientHello(client_random=bytes(32))
        )
        ccs = Record(codec.CONTENT_CHANGE_CIPHER_SPEC, (3, 3), b"\x01").encode()
        origin_protocol = _MultiSendOrigin([*flight_chunks, ccs])

        network = Network()
        client = network.add_host("victim.example")
        origin = network.add_host("wire.example")
        origin.listen(443, origin_protocol.factory)
        profile = make_profile(whitelist=frozenset({"wire.example"}))
        engine = TlsProxyEngine(
            profile,
            forger,
            upstream_host=client,
            upstream_trust=RootStore([root_ca.certificate]),
        )
        client.add_interceptor(engine)

        sock = client.connect("wire.example", 443)
        hello = ClientHello(client_random=bytes(32), server_name="wire.example")
        sock.send(codec.encode_handshake_record(hello))
        relayed = sock.recv()
        assert relayed == b"".join([*flight_chunks, ccs])
        assert engine.whitelisted == 1

    def test_double_hello_chunk_starts_one_relay(
        self, forger, origin_chain, root_ca
    ):
        """Two ClientHello records coalesced into one chunk must open
        exactly one upstream relay (the second is replayed raw, not
        re-interpreted into a second connection)."""
        network = Network()
        client = network.add_host("victim.example")
        origin = network.add_host("wire.example")
        origin.listen(443, TlsCertServer(origin_chain).factory)
        profile = make_profile(whitelist=frozenset({"wire.example"}))
        engine = TlsProxyEngine(
            profile,
            forger,
            upstream_host=client,
            upstream_trust=RootStore([root_ca.certificate]),
        )
        client.add_interceptor(engine)

        sock = client.connect("wire.example", 443)
        hello = ClientHello(client_random=bytes(32), server_name="wire.example")
        wire = codec.encode_handshake_record(hello)
        sock.send(wire + wire)
        assert engine.whitelisted == 1
        assert network.connections_opened == 2  # client leg + one relay

    def test_split_client_hello_relayed_verbatim(
        self, forger, origin_chain, root_ca
    ):
        """Split delivery + whitelist: the relay must replay the full
        ClientHello (consumed records were trimmed from the buffer)."""
        network = Network()
        client = network.add_host("victim.example")
        origin = network.add_host("wire.example")
        origin.listen(443, TlsCertServer(origin_chain).factory)
        profile = make_profile(whitelist=frozenset({"wire.example"}))
        engine = TlsProxyEngine(
            profile,
            forger,
            upstream_host=client,
            upstream_trust=RootStore([root_ca.certificate]),
        )
        client.add_interceptor(engine)

        sock = client.connect("wire.example", 443)
        hello = ClientHello(client_random=bytes(32), server_name="wire.example")
        wire = codec.encode_handshake_record(hello)
        middle = len(wire) // 2
        sock.send(wire[:middle])
        assert sock.recv() == b""  # nothing to relay yet
        sock.send(wire[middle:])
        records, rest = codec.decode_records(sock.recv())
        assert rest == b""
        messages, _ = codec.decode_handshakes(
            b"".join(
                r.payload
                for r in records
                if r.content_type == codec.CONTENT_HANDSHAKE
            )
        )
        ders = next(
            codec.Certificate.from_body(m.body).der_chain
            for m in messages
            if m.msg_type == codec.HS_CERTIFICATE
        )
        assert ders[0] == origin_chain[0].encode()  # relayed, not forged
        assert engine.whitelisted == 1
