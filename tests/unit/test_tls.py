"""Unit tests for the TLS codec, server and probe."""

import random

import pytest

from repro.netsim import Network
from repro.netsim.network import Protocol
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
from repro.tls.probe import (
    FLIGHT_DECODE_CACHE_SIZE,
    HELLO_FRAME_CACHE_SIZE,
    ProbeClient,
    _decode_flight,
    _hello_frame,
)
from repro.tls.server import (
    REPLY_TEMPLATE_KEY_BYTES,
    REPLY_TEMPLATES,
    TlsCertServer,
    _template_key,
)
from repro.util import memo_counts
from repro.x509 import Name
from repro.x509.model import SubjectPublicKeyInfo


@pytest.fixture(scope="module")
def site_chain(intermediate_ca, keystore):
    key = keystore.key("tls-site", 512)
    leaf = intermediate_ca.issue(
        Name.build(common_name="probe-target.example"),
        SubjectPublicKeyInfo(key.n, key.e),
        dns_names=["probe-target.example"],
    )
    return [leaf, intermediate_ca.certificate]


def _rand32(seed=1):
    return random.Random(seed).getrandbits(256).to_bytes(32, "big")


def _probe_flights(*flights):
    """Probe a site that answers the i-th connection with ``flights[i]``."""
    replies = iter(flights)

    class FlightServer(Protocol):
        def data_received(self, sock, data):
            sock.send(next(replies))

    net = Network()
    client = ProbeClient(net.add_host("client.example"))
    net.add_host("probe-target.example").listen(443, FlightServer)
    results = [client.probe("probe-target.example") for _ in flights]
    return results, client.metrics.deterministic_snapshot()["counters"]


def _flight(chain_der, server_random=bytes(32), session_id=b""):
    hello = ServerHello(server_random, 0x002F, session_id=session_id)
    message = CertificateMessage(tuple(chain_der))
    return codec.encode_server_flight(hello, [message], codec.TLS_1_2)


class TestRecordCodec:
    def test_round_trip(self):
        record = Record(codec.CONTENT_HANDSHAKE, (3, 1), b"payload")
        records, rest = codec.decode_records(record.encode())
        assert rest == b""
        assert records == [record]

    def test_partial_record_buffered(self):
        record = Record(codec.CONTENT_HANDSHAKE, (3, 1), b"payload").encode()
        records, rest = codec.decode_records(record[:6])
        assert records == []
        assert rest == record[:6]

    def test_multiple_records(self):
        one = Record(codec.CONTENT_HANDSHAKE, (3, 1), b"a").encode()
        two = Record(codec.CONTENT_ALERT, (3, 1), b"\x02\x28").encode()
        records, rest = codec.decode_records(one + two)
        assert len(records) == 2
        assert rest == b""

    def test_unknown_content_type_rejected(self):
        with pytest.raises(TlsError):
            codec.decode_records(b"\x63\x03\x01\x00\x00")

    def test_oversize_payload_rejected(self):
        with pytest.raises(TlsError):
            Record(codec.CONTENT_HANDSHAKE, (3, 1), b"x" * 0x4001).encode()


class TestHandshakeReader:
    """The one reader of received TLS bytes: alerts and whole messages, in wire order."""

    def _message(self, size=40):
        return HandshakeMessage(codec.HS_CLIENT_HELLO, bytes(range(size)))

    def _record(self, payload, content_type=codec.CONTENT_HANDSHAKE):
        return Record(content_type, codec.TLS_1_2, payload).encode()

    def test_record_split_across_feeds(self):
        message = self._message()
        record = self._record(message.encode())
        reader = codec.HandshakeReader()
        assert reader.feed(record[:7]) == []
        assert reader.pending == record[:7]
        assert not reader.idle
        assert reader.feed(record[7:]) == [message]
        assert reader.pending == b""
        assert reader.idle

    def test_message_split_across_records(self):
        message = self._message()
        encoded = message.encode()
        reader = codec.HandshakeReader()
        assert reader.feed(self._record(encoded[:10])) == []
        # The record is whole, the message is not.
        assert reader.pending == b""
        assert not reader.idle
        assert reader.feed(self._record(encoded[10:])) == [message]
        assert reader.idle

    def test_alerts_come_back_in_wire_order(self):
        first, second = self._message(10), self._message(20)
        alert = Record(codec.CONTENT_ALERT, codec.TLS_1_2, b"\x01\x00")
        second_encoded = second.encode()
        stream = (
            self._record(first.encode())
            + alert.encode()
            + self._record(second_encoded[:5])
            + alert.encode()
            + self._record(second_encoded[5:])
        )
        # A message sits where its last byte arrives.
        assert codec.HandshakeReader().feed(stream) == [first, alert, alert, second]

    def test_other_content_types_are_skipped(self):
        message = self._message()
        stream = b"".join(
            (
                self._record(b"\x01", codec.CONTENT_CHANGE_CIPHER_SPEC),
                self._record(b"\x01\x00\x00", codec.CONTENT_HEARTBEAT),
                self._record(message.encode()),
                self._record(b"secret", codec.CONTENT_APPLICATION_DATA),
            )
        )
        reader = codec.HandshakeReader()
        assert reader.feed(stream) == [message]
        assert reader.idle

    def test_header_that_is_not_tls_raises(self):
        reader = codec.HandshakeReader()
        whole = self._record(self._message().encode())
        with pytest.raises(TlsError):
            reader.feed(whole + b"\x99\x03\x01\x00\x00")
        with pytest.raises(TlsError):
            codec.HandshakeReader().feed(bytes([codec.CONTENT_HANDSHAKE, 9, 9, 0, 0]))


class TestClientHello:
    def test_non_ascii_host_name_yields_no_name(self):
        """RFC 6066 host names are ASCII: a byte above 0x7F is no name at all."""
        name = b"caf\xe9.example"
        entry = b"\x00" + len(name).to_bytes(2, "big") + name
        body = len(entry).to_bytes(2, "big") + entry
        assert codec.parse_sni_extension_body(body) is None
        hello = ClientHello(_rand32(), extensions=((codec.EXT_SERVER_NAME, body),))
        decoded = ClientHello.from_body(hello.to_handshake().body)
        assert decoded.server_name is None
        assert decoded.extensions == hello.extensions  # still verbatim

    def test_round_trip_with_sni(self):
        hello = ClientHello(client_random=_rand32(), server_name="qq.com")
        decoded = ClientHello.from_body(hello.to_handshake().body)
        assert decoded.server_name == "qq.com"
        assert decoded.client_random == hello.client_random
        assert decoded.cipher_suites == codec.DEFAULT_CIPHER_SUITES

    def test_round_trip_without_sni(self):
        hello = ClientHello(client_random=_rand32())
        decoded = ClientHello.from_body(hello.to_handshake().body)
        assert decoded.server_name is None

    def test_bad_random_length(self):
        with pytest.raises(TlsError):
            ClientHello(client_random=b"short")

    def test_truncated_body(self):
        hello = ClientHello(client_random=_rand32(), server_name="x.example")
        body = hello.to_handshake().body
        with pytest.raises(TlsError):
            ClientHello.from_body(body[:30])


class TestServerHelloAndCertificate:
    def test_server_hello_round_trip(self):
        hello = ServerHello(server_random=_rand32(2), cipher_suite=0x002F)
        decoded = ServerHello.from_body(hello.to_handshake().body)
        assert decoded == hello

    def test_server_hello_preserves_extensions_and_compression(self):
        """Regression: the old codec dropped the extensions block and
        hardcoded the null-compression byte on re-encode."""
        hello = ServerHello(
            server_random=_rand32(2),
            cipher_suite=0xC02F,
            session_id=b"\x07" * 16,
            compression_method=1,
            extensions=(
                (codec.EXT_RENEGOTIATION_INFO, b"\x00"),
                (codec.EXT_SESSION_TICKET, b""),
                (0xABCD, b"unknown-type-body"),
            ),
        )
        body = hello.to_handshake().body
        decoded = ServerHello.from_body(body)
        assert decoded == hello
        assert decoded.to_handshake().body == body
        assert decoded.compression_method == 1
        assert decoded.extension_types == (
            codec.EXT_RENEGOTIATION_INFO,
            codec.EXT_SESSION_TICKET,
            0xABCD,
        )
        assert decoded.extension_body(0xABCD) == b"unknown-type-body"
        assert decoded.extension_body(codec.EXT_ALPN) is None

    def test_server_hello_none_vs_empty_extensions_distinct(self):
        bare = ServerHello(server_random=_rand32(2), cipher_suite=0x002F)
        empty = ServerHello(
            server_random=_rand32(2), cipher_suite=0x002F, extensions=()
        )
        assert len(empty.to_handshake().body) == len(bare.to_handshake().body) + 2
        assert ServerHello.from_body(bare.to_handshake().body).extensions is None
        assert ServerHello.from_body(empty.to_handshake().body).extensions == ()

    def test_from_body_parsers_reject_trailing_garbage(self):
        """Every handshake parser must assert reader exhaustion."""
        server = ServerHello(server_random=_rand32(2), cipher_suite=0x002F)
        with pytest.raises(TlsError):
            # One stray byte cannot even be an extensions-block length.
            ServerHello.from_body(server.to_handshake().body + b"\x00")
        client = ClientHello(client_random=_rand32(), server_name="x.example")
        with pytest.raises(TlsError):
            ClientHello.from_body(client.to_handshake().body + b"\x00\x00")
        message = CertificateMessage((b"\x01\x02\x03",))
        with pytest.raises(TlsError):
            CertificateMessage.from_body(message.to_handshake().body + b"\xff")

    def test_certificate_round_trip(self, site_chain):
        message = CertificateMessage(tuple(c.encode() for c in site_chain))
        decoded = CertificateMessage.from_body(message.to_handshake().body)
        assert decoded == message

    def test_empty_certificate_message(self):
        message = CertificateMessage(())
        decoded = CertificateMessage.from_body(message.to_handshake().body)
        assert decoded.der_chain == ()

    def test_handshake_framing_round_trip(self):
        message = HandshakeMessage(codec.HS_SERVER_HELLO_DONE, b"")
        messages, rest = codec.decode_handshakes(message.encode())
        assert messages == [message]
        assert rest == b""

    def test_alert_round_trip(self):
        alert = Alert(2, codec.ALERT_HANDSHAKE_FAILURE)
        records, _ = codec.decode_records(alert.encode_record())
        assert Alert.from_payload(records[0].payload) == alert


class _Walking(TlsCertServer):
    """An origin that answers every hello on the full path, with no template."""

    def _answer_client_hello(self, sock, hello):
        return super()._answer_client_hello(sock, hello)


def _hello(client_random, name="probe-target.example", **fields):
    """One ClientHello record, framed as the probe frames it."""
    hello = ClientHello(client_random, server_name=name, **fields)
    return codec.encode_handshake_record(hello, version=hello.version)


def _serve(listener, *connections):
    """Send each connection's chunks to ``listener``; return what each received."""
    net = Network()
    client_host = net.add_host("client.example")
    net.add_host("probe-target.example").listen(443, listener.factory)
    received = []
    for chunks in connections:
        sock = client_host.connect("probe-target.example", 443)
        for chunk in chunks:
            sock.send(chunk)
        received.append(sock.recv())
    return received


def _template_counts() -> tuple[int, int]:
    """Process-wide (hits, misses) of every listener's reply templates."""
    counts = memo_counts()
    return counts.get("tls.reply_template.hits", 0), counts.get("tls.reply_template.misses", 0)


class TestReplyTemplate:
    """The origin answers each distinct hello once, its random spliced in."""

    def test_two_probes_share_one_template_and_keep_their_randoms(self, site_chain):
        listener = TlsCertServer(site_chain, rng=random.Random(5))
        hits, misses = _template_counts()
        replies = _serve(listener, [_hello(_rand32(1))], [_hello(_rand32(2))])
        assert _template_counts() == (hits + 1, misses + 1)
        assert len(listener._templates) == 1
        assert listener.handshakes_served == 2
        walked = _serve(
            _Walking(site_chain, rng=random.Random(5)),
            [_hello(_rand32(1))],
            [_hello(_rand32(2))],
        )
        assert replies == walked
        draws = random.Random(5)
        for reply in replies:
            assert reply[11:43] == draws.getrandbits(256).to_bytes(32, "big")

    def test_garbage_hello_draws_an_alert_every_time(self, site_chain):
        short = HandshakeMessage(codec.HS_CLIENT_HELLO, b"garbage").encode()
        unparseable = HandshakeMessage(codec.HS_CLIENT_HELLO, b"\x03\x03" + bytes(60)).encode()
        failure = Alert(2, codec.ALERT_HANDSHAKE_FAILURE).encode_record()
        for message in (short, unparseable):
            record = Record(codec.CONTENT_HANDSHAKE, codec.TLS_1_2, message).encode()
            listener = TlsCertServer(site_chain)
            hits, misses = _template_counts()
            assert _serve(listener, [record], [record]) == [failure, failure]
            assert _template_counts() == (hits, misses + 2)
            assert listener._templates == {}

    def test_alert_reply_is_never_kept(self, site_chain):
        rng = random.Random(5)
        state = rng.getstate()
        listener = TlsCertServer(site_chain, rng=rng)
        fallback = _hello(
            _rand32(9),
            version=codec.TLS_1_1,
            cipher_suites=(0x002F, codec.TLS_FALLBACK_SCSV),
        )
        hits, misses = _template_counts()
        replies = _serve(listener, [fallback], [fallback])
        alert = Alert(2, codec.ALERT_INAPPROPRIATE_FALLBACK).encode_record()
        assert replies == [alert, alert]
        assert rng.getstate() == state
        assert _template_counts() == (hits, misses + 2)
        assert listener._templates == {}

    def test_refused_shapes_are_walked_afresh_every_time(self, site_chain):
        hello = _hello(_rand32(1))
        message = hello[5:]
        two_messages = Record(codec.CONTENT_HANDSHAKE, codec.TLS_1_2, message * 2).encode()
        split = Record(codec.CONTENT_HANDSHAKE, codec.TLS_1_2, message[:24]).encode()
        split += Record(codec.CONTENT_HANDSHAKE, codec.TLS_1_2, message[24:]).encode()
        shapes = (
            [hello + hello],
            [two_messages],
            [split],
            [hello + Alert(1, 0).encode_record()],
            [hello[:20], hello[20:]],
        )
        for chunks in shapes:
            listener = TlsCertServer(site_chain, rng=random.Random(5))
            hits, misses = _template_counts()
            replies = _serve(listener, chunks, chunks)
            assert _template_counts() == (hits, misses + 2 * len(chunks))
            assert listener._templates == {}
            walked = _serve(_Walking(site_chain, rng=random.Random(5)), chunks, chunks)
            assert replies == walked

    def test_over_cap_hello_is_answered_but_not_kept(self, site_chain):
        empty = _hello(_rand32(), extensions=((codec.EXT_PADDING, b""),))
        padding = bytes(REPLY_TEMPLATE_KEY_BYTES + 1 - len(empty))
        record = _hello(_rand32(), extensions=((codec.EXT_PADDING, padding),))
        assert len(record) == REPLY_TEMPLATE_KEY_BYTES + 1
        listener = TlsCertServer(site_chain, rng=random.Random(5))
        hits, misses = _template_counts()
        replies = _serve(listener, [record], [record])
        assert _template_counts() == (hits, misses + 2)
        assert listener._templates == {}
        assert listener.handshakes_served == 2
        assert replies == _serve(
            _Walking(site_chain, rng=random.Random(5)), [record], [record]
        )

    def test_templates_stay_within_their_bound(self, site_chain):
        listener = TlsCertServer(site_chain)
        hellos = [
            _hello(_rand32(), session_id=index.to_bytes(2, "big"))
            for index in range(REPLY_TEMPLATES + 3)
        ]
        _serve(listener, *([hello] for hello in hellos))
        assert len(listener._templates) == REPLY_TEMPLATES
        assert _template_key(hellos[0]) not in listener._templates
        assert _template_key(hellos[-1]) in listener._templates

    def test_overriding_subclass_sees_every_hello(self, site_chain):
        seen = []

        class Counting(TlsCertServer):
            def _answer_client_hello(self, sock, hello):
                seen.append(hello.client_random)
                return super()._answer_client_hello(sock, hello)

        class OwnChain(TlsCertServer):
            def chain_for(self, server_name):
                seen.append(server_name)
                return self.chain[:1]

        hits, misses = _template_counts()
        first, second = _hello(_rand32(1)), _hello(_rand32(2))
        _serve(Counting(site_chain), [first], [second], [first])
        assert seen == [_rand32(1), _rand32(2), _rand32(1)]
        seen.clear()
        replies = _serve(OwnChain(site_chain), [first], [first])
        assert seen == ["probe-target.example"] * 2
        for reply in replies:
            records, _ = codec.decode_records(reply)
            messages, _ = codec.decode_handshakes(records[1].payload)
            assert CertificateMessage.from_body(messages[0].body).der_chain == (
                site_chain[0].encode(),
            )
        assert _template_counts() == (hits, misses)


class TestSplitHello:
    """A ClientHello may span records (RFC 5246 §6.2.1); the origin reassembles it."""

    def _records(self):
        hello = _hello(_rand32(3))
        message = hello[5:]
        first = Record(codec.CONTENT_HANDSHAKE, codec.TLS_1_2, message[:24]).encode()
        second = Record(codec.CONTENT_HANDSHAKE, codec.TLS_1_2, message[24:]).encode()
        return hello, first, second

    def _flight(self, site_chain, *chunks):
        [reply] = _serve(TlsCertServer(site_chain, rng=random.Random(4)), chunks)
        return reply

    def test_split_hello_in_one_send_draws_the_flight(self, site_chain):
        hello, first, second = self._records()
        flight = self._flight(site_chain, hello)
        records, _ = codec.decode_records(flight)
        messages, _ = codec.decode_handshakes(b"".join(r.payload for r in records))
        assert [message.msg_type for message in messages] == [
            codec.HS_SERVER_HELLO,
            codec.HS_CERTIFICATE,
            codec.HS_SERVER_HELLO_DONE,
        ]
        assert self._flight(site_chain, first + second) == flight

    def test_split_hello_in_two_sends_draws_the_flight(self, site_chain):
        hello, first, second = self._records()
        assert self._flight(site_chain, first, second) == self._flight(site_chain, hello)

    @pytest.mark.parametrize("max_version", [codec.TLS_1_2, codec.TLS_1_0])
    def test_record_boundaries_do_not_change_the_answer(self, site_chain, max_version):
        """Two hellos draw the same replies in one record as in two (RFC 5246 §6.2.1).

        The first answers with its flight (the 1.0 origin), or refuses
        a fallback offer (the 1.2 origin); a second that does not parse
        then draws handshake_failure if the connection is still open.
        """
        hello = ClientHello(
            _rand32(6),
            server_name="probe-target.example",
            version=codec.TLS_1_0,
            cipher_suites=(0x002F, codec.TLS_FALLBACK_SCSV),
        ).to_handshake().encode()
        broken = HandshakeMessage(codec.HS_CLIENT_HELLO, b"\x03\x01" + bytes(5)).encode()
        one_record = Record(codec.CONTENT_HANDSHAKE, codec.TLS_1_0, hello + broken).encode()
        two_records = (
            Record(codec.CONTENT_HANDSHAKE, codec.TLS_1_0, hello).encode()
            + Record(codec.CONTENT_HANDSHAKE, codec.TLS_1_0, broken).encode()
        )
        replies = [
            _serve(
                TlsCertServer(site_chain, rng=random.Random(4), max_version=max_version),
                [data],
            )[0]
            for data in (one_record, two_records)
        ]
        assert replies[0] == replies[1]
        records, rest = codec.decode_records(replies[0])
        assert rest == b""
        alerts = [
            Alert.from_payload(record.payload).description
            for record in records
            if record.content_type == codec.CONTENT_ALERT
        ]
        if max_version == codec.TLS_1_0:
            assert records[0].content_type == codec.CONTENT_HANDSHAKE
            assert alerts == [codec.ALERT_HANDSHAKE_FAILURE]
        else:
            assert alerts == [codec.ALERT_INAPPROPRIATE_FALLBACK]

    def test_hello_cut_short_then_closed_draws_nothing(self, site_chain):
        _hello_record, first, _second = self._records()
        listener = TlsCertServer(site_chain)
        net = Network()
        client_host = net.add_host("client.example")
        net.add_host("probe-target.example").listen(443, listener.factory)
        sock = client_host.connect("probe-target.example", 443)
        sock.send(first)
        sock.close()
        assert sock.recv() == b""
        assert listener.handshakes_served == 0


class TestProbeRandom:
    """A probe client without an rng sends what a fresh Random(0xFACADE) draws."""

    def _sent(self, client, probes):
        received = []

        class Recorder(Protocol):
            def data_received(self, sock, data):
                received.append(data)

        client.host.network.add_host("probe-target.example").listen(443, Recorder)
        for _ in range(probes):
            client.probe("probe-target.example")
        return received

    def _stream(self, rng, probes):
        return [_hello(rng.getrandbits(256).to_bytes(32, "big")) for _ in range(probes)]

    def test_kth_probe_without_rng_sends_the_default_stream(self):
        sent = self._sent(ProbeClient(Network().add_host("client.example")), 17)
        expected = self._stream(random.Random(0xFACADE), 17)
        for k in (0, 1, 16):
            assert sent[k] == expected[k], k
        assert sent == expected

    def test_each_client_starts_the_stream_afresh(self):
        net = Network()
        first = ProbeClient(net.add_host("one.example"))
        second = ProbeClient(net.add_host("two.example"))
        sent = self._sent(first, 2)
        second.probe("probe-target.example")
        second.probe("probe-target.example")
        expected = self._stream(random.Random(0xFACADE), 2)
        assert sent[:2] == expected
        assert sent[2:] == expected

    def test_client_with_an_rng_draws_from_it(self):
        client = ProbeClient(Network().add_host("client.example"), rng=random.Random(7))
        assert self._sent(client, 3) == self._stream(random.Random(7), 3)


class TestFrameMemos:
    """The probe's hello frame and the Certificate decode."""

    def test_hello_frame_memo_stays_within_its_bound(self):
        for index in range(HELLO_FRAME_CACHE_SIZE + 3):
            _hello_frame((None, f"site{index}.example", b""))
        info = _hello_frame.cache_info()
        assert info.currsize == info.maxsize == HELLO_FRAME_CACHE_SIZE

    def test_oversized_hello_frame_is_framed_but_not_cached(self):
        hostname = "a" * (_hello_frame.max_key_bytes + 1)
        currsize = _hello_frame.cache_info().currsize
        frame = _hello_frame((None, hostname, b""))
        hello = ClientHello(bytes(32), server_name=hostname)
        assert frame == codec.encode_handshake_record(hello, version=hello.version)
        assert _hello_frame((None, hostname, b"")) is not frame
        assert _hello_frame.cache_info().currsize == currsize

    def test_bad_certificate_message_fails_every_probe(self):
        from repro.netsim.network import Protocol

        class BadCertificateServer(Protocol):
            def factory(self):
                return BadCertificateServer()

            def data_received(self, sock, data):
                hello = ServerHello(server_random=_rand32(4), cipher_suite=0x002F)
                bad = HandshakeMessage(codec.HS_CERTIFICATE, b"\x00\x00\x09")
                sock.send(codec.encode_server_flight(hello, [bad], codec.TLS_1_2))

        net = Network()
        client_host = net.add_host("client.example")
        net.add_host("probe-target.example").listen(443, BadCertificateServer().factory)
        client = ProbeClient(client_host)
        results = [client.probe("probe-target.example") for _ in range(2)]
        errors = [result.error for result in results]
        assert errors == ["tls: truncated handshake body"] * 2


class TestFlightMemo:
    """The probe decodes each distinct flight once, random blanked."""

    def test_probes_of_one_site_share_an_entry_and_keep_their_random(self, site_chain):
        chain_der = [certificate.raw for certificate in site_chain]
        randoms = [_rand32(seed) for seed in (11, 12)]
        _decode_flight.cache_clear()
        results, _ = _probe_flights(*(_flight(chain_der, rnd) for rnd in randoms))
        assert [result.ok for result in results] == [True, True]
        assert [result.server_hello.server_random for result in results] == randoms
        assert results[0].chain == results[1].chain
        assert _decode_flight.cache_info()[:2] == (1, 1)

    def test_memo_stays_within_its_bound(self, site_chain):
        chain_der = [certificate.raw for certificate in site_chain]
        for index in range(FLIGHT_DECODE_CACHE_SIZE + 3):
            _decode_flight(_flight(chain_der, session_id=index.to_bytes(2, "big")))
        info = _decode_flight.cache_info()
        assert info.currsize == info.maxsize == FLIGHT_DECODE_CACHE_SIZE

    def test_oversized_flight_is_decoded_but_not_kept(self, site_chain):
        leaf = site_chain[0].raw
        copies = _decode_flight.max_key_bytes // len(leaf) + 1
        flight = _flight([leaf] * copies)
        assert len(flight) > _decode_flight.max_key_bytes
        currsize = _decode_flight.cache_info().currsize
        results, _ = _probe_flights(flight, flight)
        assert [len(result.chain) for result in results] == [copies, copies]
        assert results[0] == results[1] and results[0].chain is not results[1].chain
        assert _decode_flight.cache_info().currsize == currsize

    def test_refused_flight_is_decoded_again_each_time(self, site_chain):
        bad = HandshakeMessage(codec.HS_CERTIFICATE, b"\x00\x00\x09")
        hello = ServerHello(server_random=_rand32(4), cipher_suite=0x002F)
        flight = codec.encode_server_flight(hello, [bad], codec.TLS_1_2)
        info = _decode_flight.cache_info()
        results, counters = _probe_flights(flight, flight)
        assert [result.error for result in results] == ["tls: truncated handshake body"] * 2
        assert counters["probe.failures{stage=tls}"] == 2
        after = _decode_flight.cache_info()
        assert (after.misses, after.currsize) == (info.misses + 2, info.currsize)

    def test_no_certificate_flight_keeps_each_received_random(self):
        randoms = [_rand32(seed) for seed in (21, 22)]
        flights = [
            codec.encode_handshake_record(ServerHello(rnd, cipher_suite=0xC02F))
            for rnd in randoms
        ]
        results, counters = _probe_flights(*flights)
        assert [result.error for result in results] == ["no Certificate message received"] * 2
        assert [result.server_hello.server_random for result in results] == randoms
        assert counters["probe.failures{stage=no-certificate}"] == 2

    def test_hello_split_across_records_skips_the_memo(self, site_chain):
        # The first record ends before the random, so bytes 11-42 are not
        # the random: the flight is read as received, without a lookup.
        hello = ServerHello(_rand32(41), 0x002F)
        message = hello.to_handshake().encode()
        chain = CertificateMessage(tuple(c.raw for c in site_chain)).to_handshake()
        flight = b"".join(
            Record(codec.CONTENT_HANDSHAKE, codec.TLS_1_2, payload).encode()
            for payload in (message[:20], message[20:], chain.encode())
        )
        info = _decode_flight.cache_info()
        results, _ = _probe_flights(flight, flight)
        assert [result.ok for result in results] == [True, True]
        assert [result.server_hello for result in results] == [hello, hello]
        assert _decode_flight.cache_info()[:2] == info[:2]

    def test_hello_too_short_for_a_random_skips_the_memo(self, site_chain):
        short = HandshakeMessage(codec.HS_SERVER_HELLO, b"\x03\x01" + bytes(20))
        chain = CertificateMessage(tuple(c.raw for c in site_chain)).to_handshake()
        payload = short.encode() + chain.encode()
        flight = Record(codec.CONTENT_HANDSHAKE, codec.TLS_1_2, payload).encode()
        info = _decode_flight.cache_info()
        results, _ = _probe_flights(flight, flight)
        assert [result.error for result in results] == ["tls: truncated handshake body"] * 2
        assert _decode_flight.cache_info()[:2] == info[:2]

    def test_second_server_hello_is_read_from_the_received_bytes(self, site_chain):
        first, last = ServerHello(_rand32(31), 0x002F), ServerHello(_rand32(32), 0x0035)
        flight = codec.encode_server_flight(
            first,
            [last.to_handshake(), CertificateMessage(tuple(c.raw for c in site_chain))],
            codec.TLS_1_2,
        )
        results, _ = _probe_flights(flight, flight)
        assert [result.server_hello for result in results] == [last, last]

    def test_extension_without_value_fails_at_x509(self, site_chain):
        # A critical Extension cut to {OID, BOOLEAN}: the parser used to
        # index past the BOOLEAN, and the probe raised IndexError.
        leaf = site_chain[0].raw
        at = leaf.index(bytes.fromhex("300c0603551d130101ff0402")) + 1
        chain_der = (leaf[:at] + b"\x08" + leaf[at + 1 :], site_chain[1].raw)
        results, counters = _probe_flights(*[_flight(chain_der, _rand32(5))] * 2)
        for result in results:
            assert not result.ok
            assert result.error.startswith("x509: ")
            assert result.der_chain == chain_der
            assert result.server_hello.server_random == _rand32(5)
        assert counters["probe.failures{stage=x509}"] == 2


class TestVersionAwareRecords:
    def test_frozen_tls13_record_version_tolerated(self):
        """RFC 8446 §5.1 freezes the record-layer version at 0x0303
        (and allows 0x0304 on some stacks); neither is garbage."""
        for minor in (1, 3, 4):
            record = Record(codec.CONTENT_HANDSHAKE, (3, minor), b"payload")
            records, rest = codec.decode_records(record.encode())
            assert records == [record]
            assert rest == b""

    def test_implausible_record_version_rejected(self):
        """Random bytes that happen to carry a known content type must
        still be classified as garbage via the version sanity check."""
        for major, minor in ((4, 0), (3, 5), (9, 9), (0, 3)):
            data = bytes([codec.CONTENT_HANDSHAKE, major, minor, 0, 1, 0x41])
            with pytest.raises(TlsError):
                codec.decode_records(data)


class TestTls13Origin:
    def _rig(self, chain, max_version=codec.TLS_1_3):
        net = Network()
        client_host = net.add_host("client.example")
        server_host = net.add_host("probe-target.example")
        server_host.listen(
            443, TlsCertServer(chain, max_version=max_version).factory
        )
        return net, client_host

    def test_origin_answers_modern_browser_expectation(self, site_chain):
        """The invariant the modern scorecard checks lean on: a genuine
        TLS 1.3 origin's answer to a 2020-era browser matches that
        profile's expected cipher, extension set and ALPN exactly."""
        from repro.tls.fingerprint import browser_profile

        net, client_host = self._rig(site_chain)
        browser = browser_profile("chrome-2020")
        result = ProbeClient(client_host, browser=browser).probe(
            "probe-target.example"
        )
        assert result.ok
        served = result.server_hello
        assert served.version == codec.TLS_1_2  # frozen legacy field
        assert served.selected_version == codec.TLS_1_3
        assert served.cipher_suite == browser.expected_server_cipher
        assert served.extension_types == browser.expected_server_extension_types
        assert served.alpn_protocol == browser.expected_alpn

    def test_legacy_client_gets_legacy_answer(self, site_chain):
        net, client_host = self._rig(site_chain)
        result = ProbeClient(client_host).probe("probe-target.example")
        assert result.ok
        served = result.server_hello
        assert served.selected_version == codec.TLS_1_2
        assert served.extensions is None

    def test_fallback_scsv_draws_inappropriate_fallback(self, site_chain):
        """RFC 7507: a fallback retry offering less than the origin
        speaks is refused with a dedicated fatal alert."""
        net, client_host = self._rig(site_chain, max_version=codec.TLS_1_2)
        sock = client_host.connect("probe-target.example", 443)
        hello = ClientHello(
            client_random=_rand32(9),
            version=codec.TLS_1_1,
            cipher_suites=(0x002F, codec.TLS_FALLBACK_SCSV),
            server_name="probe-target.example",
        )
        sock.send(codec.encode_handshake_record(hello, version=hello.version))
        records, _ = codec.decode_records(sock.recv())
        assert records[0].content_type == codec.CONTENT_ALERT
        alert = Alert.from_payload(records[0].payload)
        assert alert.description == codec.ALERT_INAPPROPRIATE_FALLBACK

    def test_scsv_at_full_strength_is_served(self, site_chain):
        """A client that offers SCSV while already at the origin's
        ceiling is not a fallback — it must be answered normally."""
        net, client_host = self._rig(site_chain, max_version=codec.TLS_1_2)
        sock = client_host.connect("probe-target.example", 443)
        hello = ClientHello(
            client_random=_rand32(10),
            cipher_suites=(0x002F, codec.TLS_FALLBACK_SCSV),
            server_name="probe-target.example",
        )
        sock.send(codec.encode_handshake_record(hello, version=hello.version))
        records, _ = codec.decode_records(sock.recv())
        assert records[0].content_type == codec.CONTENT_HANDSHAKE


class TestProbeEndToEnd:
    def build_network(self, chain):
        net = Network()
        client_host = net.add_host("client.example")
        server_host = net.add_host("probe-target.example")
        server = TlsCertServer(chain)
        server_host.listen(443, server.factory)
        return net, client_host, server

    def test_probe_receives_chain(self, site_chain):
        net, client_host, server = self.build_network(site_chain)
        probe = ProbeClient(client_host)
        result = probe.probe("probe-target.example")
        assert result.ok
        assert [c.encode() for c in result.chain] == [
            c.encode() for c in site_chain
        ]
        assert result.leaf.subject.common_name == "probe-target.example"
        assert result.server_hello is not None
        assert server.handshakes_served == 1

    def test_probe_chain_bytes_exact(self, site_chain):
        net, client_host, _ = self.build_network(site_chain)
        result = ProbeClient(client_host).probe("probe-target.example")
        assert result.der_chain == tuple(c.encode() for c in site_chain)

    def test_probe_connection_refused(self, site_chain):
        net = Network()
        client_host = net.add_host("client.example")
        result = ProbeClient(client_host).probe("missing.example")
        assert not result.ok
        assert "connect" in result.error

    def test_probe_sni_selects_chain(self, site_chain, root_ca, keystore):
        other_key = keystore.key("other-site", 512)
        other_leaf = root_ca.issue(
            Name.build(common_name="other.example"),
            SubjectPublicKeyInfo(other_key.n, other_key.e),
            dns_names=["other.example"],
        )
        net = Network()
        client_host = net.add_host("client.example")
        server_host = net.add_host("probe-target.example")
        server = TlsCertServer(
            site_chain, sni_chains={"other.example": [other_leaf]}
        )
        server_host.listen(443, server.factory)

        probe = ProbeClient(client_host)
        default = probe.probe("probe-target.example")
        assert default.leaf.subject.common_name == "probe-target.example"

        # Connect to the same host but ask (via SNI) for the other name.
        sock = client_host.connect("probe-target.example", 443)
        hello = ClientHello(client_random=_rand32(3), server_name="other.example")
        sock.send(codec.encode_handshake_record(hello))
        records, _ = codec.decode_records(sock.recv())
        stream = b"".join(
            r.payload for r in records if r.content_type == codec.CONTENT_HANDSHAKE
        )
        messages, _ = codec.decode_handshakes(stream)
        certs = [
            codec.Certificate.from_body(m.body)
            for m in messages
            if m.msg_type == codec.HS_CERTIFICATE
        ]
        assert certs[0].der_chain == (other_leaf.encode(),)

    def test_probe_keeps_server_hello_without_certificate(self):
        """A flight with a ServerHello but no Certificate fails the
        probe yet preserves the parsed hello — the server-leg audit
        grades whatever made it onto the wire."""
        from repro.netsim.network import Protocol

        class HelloOnlyServer(Protocol):
            def factory(self):
                return HelloOnlyServer()

            def data_received(self, sock, data):
                hello = ServerHello(
                    server_random=_rand32(4), cipher_suite=0xC02F
                )
                sock.send(codec.encode_handshake_record(hello))

        net = Network()
        client_host = net.add_host("client.example")
        server_host = net.add_host("probe-target.example")
        server_host.listen(443, HelloOnlyServer().factory)
        result = ProbeClient(client_host).probe("probe-target.example")
        assert not result.ok
        assert result.error == "no Certificate message received"
        assert result.server_hello is not None
        assert result.server_hello.cipher_suite == 0xC02F

    def test_server_rejects_garbage(self, site_chain):
        net, client_host, _ = self.build_network(site_chain)
        sock = client_host.connect("probe-target.example", 443)
        sock.send(b"\x63garbage-that-is-not-tls")
        records, _ = codec.decode_records(sock.recv())
        assert records[0].content_type == codec.CONTENT_ALERT

    def test_large_chain_spans_records(self, intermediate_ca, root_ca, keystore):
        # Enough certificates to exceed one 2^14-byte record.
        chain = []
        for i in range(40):
            key = keystore.key("bulk", 1024)
            chain.append(
                intermediate_ca.issue(
                    Name.build(common_name=f"bulk{i}.example", organization="X" * 60),
                    SubjectPublicKeyInfo(key.n, key.e),
                    dns_names=[f"bulk{i}.example"],
                )
            )
        assert sum(len(c.encode()) for c in chain) > 0x4000
        net = Network()
        client_host = net.add_host("client.example")
        server_host = net.add_host("probe-target.example")
        server_host.listen(443, TlsCertServer(chain).factory)
        result = ProbeClient(client_host).probe("probe-target.example")
        assert result.ok
        assert len(result.chain) == 40
