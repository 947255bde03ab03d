"""Failure injection: byte-level adversity on every wire protocol.

The measurement pipeline must degrade into counted failures, never
crashes or silent corruption — a tool deployed to millions of clients
meets every malformed stack eventually.
"""

import pytest

from repro.asn1.der import Asn1Error
from repro.asn1.types import decode
from repro.httpmin import HttpClient, HttpResponse, HttpServer
from repro.measure.server import CombinedPolicyHttpServer
from repro.netsim import ConnectionReset, Network, Protocol
from repro.policy.model import PolicyFile
from repro.policy.server import POLICY_REQUEST, fetch_policy
from repro.tls import codec
from repro.tls.probe import ProbeClient
from repro.x509 import X509Error, parse_certificate
from repro.x509.model import SubjectPublicKeyInfo
from repro.x509 import Name


@pytest.fixture()
def site_chain(intermediate_ca, keystore):
    key = keystore.key("failure-site", 512)
    leaf = intermediate_ca.issue(
        Name.build(common_name="flaky.example"),
        SubjectPublicKeyInfo(key.n, key.e),
        dns_names=["flaky.example"],
    )
    return [leaf, intermediate_ca.certificate]


class TestTruncatedDer:
    def test_every_prefix_fails_cleanly(self, site_chain):
        der = site_chain[0].encode()
        for cut in range(0, len(der), 37):
            prefix = der[:cut]
            if not prefix or len(prefix) == len(der):
                continue
            with pytest.raises((X509Error, Asn1Error)):
                parse_certificate(prefix)

    def test_bitflips_fail_or_parse(self, site_chain):
        """A corrupted certificate either raises X509Error or parses to
        something different — it must never parse back to the original."""
        der = bytearray(site_chain[0].encode())
        original_fingerprint = site_chain[0].fingerprint()
        for position in range(5, len(der), 83):
            corrupted = bytearray(der)
            corrupted[position] ^= 0xFF
            try:
                parsed = parse_certificate(bytes(corrupted))
            except (X509Error, Asn1Error):
                continue
            assert parsed.fingerprint() != original_fingerprint

    def test_decode_arbitrary_junk(self):
        for junk in (b"\x00", b"\xff" * 10, b"\x30\x84\xff\xff\xff\xff"):
            with pytest.raises(Asn1Error):
                decode(junk)


class BrokenServer(Protocol):
    """Sends garbage instead of TLS."""

    def data_received(self, sock, data):
        sock.send(b"\x16\x03\x01\x00\x05GARBAGE-NOT-A-RECORD")


class HalfRecordServer(Protocol):
    """Sends a truncated record then closes."""

    def data_received(self, sock, data):
        record = codec.Record(codec.CONTENT_HANDSHAKE, (3, 1), b"x" * 100).encode()
        sock.send(record[:20])
        sock.close()


class ResetServer(Protocol):
    """Closes the moment a connection opens."""

    def connection_made(self, sock):
        sock.close()


class TestProbeResilience:
    def build(self, protocol_factory):
        net = Network()
        client = net.add_host("client.example")
        server = net.add_host("flaky.example")
        server.listen(443, protocol_factory)
        return ProbeClient(client)

    def test_garbage_tls_reported_as_error(self):
        probe = self.build(BrokenServer)
        result = probe.probe("flaky.example", 443)
        assert not result.ok
        assert result.error

    def test_half_record_no_certificate(self):
        probe = self.build(HalfRecordServer)
        result = probe.probe("flaky.example", 443)
        assert not result.ok
        assert "no Certificate" in result.error

    def test_immediate_reset(self):
        probe = self.build(ResetServer)
        result = probe.probe("flaky.example", 443)
        assert not result.ok

    def test_server_sends_corrupt_certificate(self, site_chain):
        der = site_chain[0].encode()

        class RawServer(Protocol):
            """Answers any hello with a Certificate message carrying ``leaf_der``."""

            def __init__(self, leaf_der):
                self.leaf_der = leaf_der

            def data_received(self, sock, data):
                hello = codec.ServerHello(server_random=bytes(32), cipher_suite=0x2F)
                cert = codec.Certificate((self.leaf_der,))
                payload = hello.to_handshake().encode() + cert.to_handshake().encode()
                sock.send(codec.Record(codec.CONTENT_HANDSHAKE, (3, 1), payload).encode())

        def probe_with(leaf_der):
            return self.build(lambda: RawServer(leaf_der)).probe("flaky.example", 443)

        # The outer SEQUENCE turned into a SET: the parser refuses it,
        # and the probe keeps the bytes that arrived.
        unparseable = b"\x31" + der[1:]
        result = probe_with(unparseable)
        assert result.ok is False
        assert result.error.startswith("x509: expected Sequence for Certificate")
        assert result.der_chain == (unparseable,)
        # A flipped signature bit still parses: the probe captures what
        # arrived and checks no signature.
        bad_signature = der[:-1] + bytes([der[-1] ^ 0x01])
        result = probe_with(bad_signature)
        assert result.ok is True
        assert result.der_chain == (bad_signature,)
        assert result.leaf.encode() == bad_signature


class TestPolicyResilience:
    def test_policy_server_receiving_tls_hangs_up(self):
        net = Network()
        client = net.add_host("client.example")
        from repro.policy.server import PolicyServer

        host = net.add_host("site.example")
        host.listen(843, PolicyServer(PolicyFile.permissive()).factory)
        sock = client.connect("site.example", 843)
        hello = codec.ClientHello(client_random=bytes(32))
        sock.send(codec.encode_handshake_record(hello))
        assert sock.closed or sock.recv() == b""

    def test_combined_server_single_byte_delivery(self):
        """The port-80 protocol sniffer must survive byte-at-a-time data."""
        net = Network()
        client = net.add_host("client.example")
        host = net.add_host("site.example")
        http = HttpServer()
        http.route("GET", "/", lambda req, remote: HttpResponse(200, body=b"hi"))
        combined = CombinedPolicyHttpServer(PolicyFile.permissive("443"), http)
        host.listen(80, combined.factory)

        sock = client.connect("site.example", 80)
        for byte in POLICY_REQUEST:
            sock.send(bytes([byte]))
            if sock.closed:
                break
        data = sock.recv()
        assert b"cross-domain-policy" in data

    def test_combined_server_http_one_byte_at_a_time(self):
        net = Network()
        client = net.add_host("client.example")
        host = net.add_host("site.example")
        http = HttpServer()
        http.route("GET", "/", lambda req, remote: HttpResponse(200, body=b"hi"))
        combined = CombinedPolicyHttpServer(PolicyFile.permissive("443"), http)
        host.listen(80, combined.factory)

        sock = client.connect("site.example", 80)
        request = b"GET / HTTP/1.1\r\nHost: site.example\r\n\r\n"
        buffered = b""
        for byte in request:
            try:
                sock.send(bytes([byte]))
            except ConnectionReset:
                break
            buffered += sock.recv()
        response, _ = HttpResponse.try_decode(buffered)
        assert response is not None and response.ok

    def test_fetch_policy_from_http_only_server(self):
        """Asking an HTTP server for a policy yields a PolicyError, not a hang."""
        from repro.policy.model import PolicyError

        net = Network()
        client = net.add_host("client.example")
        host = net.add_host("site.example")
        http = HttpServer()
        host.listen(80, http.factory)
        with pytest.raises((PolicyError, ConnectionReset)):
            fetch_policy(client, "site.example", port=80)


class TestHttpResilience:
    def test_oversized_content_length_stalls_not_crashes(self):
        net = Network()
        client_host = net.add_host("client.example")
        server_host = net.add_host("www.example")
        server = HttpServer()
        server.route("GET", "/", lambda req, remote: HttpResponse(200))
        server_host.listen(80, server.factory)
        sock = client_host.connect("www.example", 80)
        sock.send(b"GET / HTTP/1.1\r\nContent-Length: 99999\r\n\r\nshort")
        # Server waits for the rest of the body: no response, no crash.
        assert sock.recv() == b""
        assert not sock.closed

    def test_client_raises_on_empty_response(self, site_chain):
        net = Network()
        client_host = net.add_host("client.example")
        server_host = net.add_host("www.example")

        class Mute(Protocol):
            def data_received(self, sock, data):
                pass  # never answer

        server_host.listen(80, Mute)
        from repro.httpmin.codec import HttpError

        with pytest.raises(HttpError):
            HttpClient(client_host).get("www.example", "/")
