"""Property-based tests: the wire leg's framing memos emit the same bytes.

Each memoised frame must equal what a per-call encoder gives, on the
first call and on every hit.  The per-call encoders kept here are
copies of the ones the memos replaced.  The server flight, framed per
call, is checked against the record rules it must follow instead.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.httpmin.codec import (
    HttpRequest,
    HttpResponse,
    _parse_headers,
    _parse_request_head,
    _parse_response_head,
)
from repro.tls import codec, probe
from repro.tls.codec import (
    Certificate as CertificateMessage,
    ClientHello,
    HandshakeMessage,
    ServerHello,
)
from repro.tls.fingerprint import BROWSER_PROFILES

# --- reference encoders -------------------------------------------------


def reference_headers(headers, body):
    lines = []
    seen = {name.lower() for name in headers}
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    if "content-length" not in seen:
        lines.append(f"Content-Length: {len(body)}")
    return lines


def reference_head(start_line, headers, body):
    lines = [start_line, *reference_headers(headers, body)]
    return "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n"


# --- strategies -----------------------------------------------------------

randoms = st.binary(min_size=32, max_size=32)
versions = st.sampled_from([codec.TLS_1_0, codec.TLS_1_1, codec.TLS_1_2])
hostnames = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-.", max_size=253
)
session_ids = st.binary(max_size=32)
browsers = st.sampled_from([None, *BROWSER_PROFILES.values()])

# One large entry pushes the flight tail past the 2^14 record limit;
# three stay under the memo's 64 KiB key cap.
der_entries = st.one_of(
    st.binary(min_size=1, max_size=2000),
    st.builds(
        lambda size, fill: bytes([fill]) * size,
        st.integers(0x4000, 0x4800),
        st.integers(0, 255),
    ),
)
chains = st.lists(der_entries, max_size=3).map(tuple)
LARGE_CHAIN = (b"\x30" * 0x4100, b"\x31" * 100)

header_names = st.from_regex(r"[A-Za-z][A-Za-z0-9\-]{0,15}", fullmatch=True)
header_names = header_names.filter(lambda name: name.lower() != "content-length")
header_values = st.from_regex(r"[ -~]{0,40}", fullmatch=True)
header_dicts = st.dictionaries(header_names, header_values, max_size=6)


class TestTlsFrames:
    @given(
        browser=browsers,
        hostname=hostnames,
        session_id=session_ids,
        client_random=randoms,
    )
    @settings(max_examples=150)
    def test_hello_frame_splice_equals_full_encode(
        self, browser, hostname, session_id, client_random
    ):
        if browser is None:
            hello = ClientHello(
                client_random=client_random, server_name=hostname, session_id=session_id
            )
        else:
            hello = browser.client_hello(client_random, hostname, session_id)
        expected = codec.encode_handshake_record(hello, version=hello.version)
        for _ in range(2):  # the first call may miss; the second hits
            record = probe._hello_record(browser, hostname, session_id, client_random)
            assert record == expected

    @given(
        server_random=randoms,
        version=versions,
        offered=versions,
        chain=chains,
        with_done=st.booleans(),
    )
    @example(
        server_random=bytes(32),
        version=codec.TLS_1_2,
        offered=codec.TLS_1_0,
        chain=LARGE_CHAIN,
        with_done=True,
    )
    @settings(max_examples=60)
    def test_server_flight_equals_per_call_framing(
        self, server_random, version, offered, chain, with_done
    ):
        server_hello = ServerHello(
            server_random=server_random, cipher_suite=0x002F, version=version
        )
        messages = [CertificateMessage(chain)]
        if with_done:
            messages.append(HandshakeMessage(codec.HS_SERVER_HELLO_DONE, b""))
        flight = codec.encode_server_flight(server_hello, messages, offered)
        records, rest = codec.decode_records(flight)
        assert rest == b""
        head, *tail = records
        # The ServerHello travels alone, in the version the client offered.
        assert head.version == offered
        assert head.payload == server_hello.to_handshake().encode()
        # The rest speak the negotiated version, cut at the 2^14 limit.
        assert tail and all(record.version == version for record in tail)
        assert all(len(record.payload) == 0x4000 for record in tail[:-1])
        assert len(tail[-1].payload) <= 0x4000
        reader = codec.HandshakeReader()
        assert reader.feed(flight) == [
            server_hello.to_handshake(),
            *(
                message if isinstance(message, HandshakeMessage) else message.to_handshake()
                for message in messages
            ),
        ]
        assert reader.idle
        if sum(map(len, chain)) > 0x4000:
            assert len(records) > 2


class TestHttpHeads:
    @given(
        method=st.sampled_from(["GET", "POST", "PUT"]),
        path=st.from_regex(r"/[a-zA-Z0-9/\-_\.]{0,30}", fullmatch=True),
        headers=header_dicts,
        body=st.binary(max_size=300),
    )
    @settings(max_examples=150)
    def test_request_head_round_trip(self, method, path, headers, body):
        start_line = f"{method} {path} HTTP/1.1"
        head = reference_head(start_line, headers, body)
        request = HttpRequest(method, path, headers=dict(headers), body=body)
        for _ in range(2):
            assert request.encode() == head + body
            decoded, rest = HttpRequest.try_decode(request.encode())
            assert rest == b""
            assert (decoded.method, decoded.path, decoded.body) == (method, path, body)
            assert decoded.headers == _parse_headers(head[len(start_line) + 2 : -4])

    @given(
        status=st.integers(100, 599),
        headers=header_dicts,
        body=st.binary(max_size=300),
    )
    @settings(max_examples=150)
    def test_response_head_round_trip(self, status, headers, body):
        response = HttpResponse(status, headers=dict(headers), body=body)
        reason = HttpResponse._REASONS.get(status, "Unknown")
        start_line = f"HTTP/1.1 {status} {reason}"
        head = reference_head(start_line, headers, body)
        for _ in range(2):
            assert response.encode() == head + body
            decoded, rest = HttpResponse.try_decode(response.encode())
            assert rest == b""
            assert (decoded.status, decoded.reason) == (status, reason)
            assert decoded.body == body
            assert decoded.headers == _parse_headers(head[len(start_line) + 2 : -4])

    @given(headers=header_dicts)
    @settings(max_examples=50)
    def test_memoised_items_are_immutable(self, headers):
        for memo, start_line in (
            (_parse_request_head, "GET / HTTP/1.1"),
            (_parse_response_head, "HTTP/1.1 200 OK"),
        ):
            items = memo(reference_head(start_line, headers, b"")[:-4])[2]
            assert isinstance(items, tuple)
            assert all(isinstance(item, tuple) for item in items)
