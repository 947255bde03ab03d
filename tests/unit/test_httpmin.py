"""Unit tests for the minimal HTTP layer."""

import pytest

from repro.httpmin import HttpClient, HttpError, HttpRequest, HttpResponse, HttpServer
from repro.httpmin.codec import (
    HEAD_CACHE_SIZE,
    _encode_head,
    _parse_request_head,
    _parse_response_head,
)
from repro.netsim import Network


@pytest.fixture()
def web():
    net = Network()
    client_host = net.add_host("client.example")
    server_host = net.add_host("www.example")
    server = HttpServer()
    server.route("GET", "/", lambda req, remote: HttpResponse(200, body=b"index"))
    server.route(
        "POST",
        "/report",
        lambda req, remote: HttpResponse(200, body=b"got " + str(len(req.body)).encode()),
    )
    server_host.listen(80, server.factory)
    return net, HttpClient(client_host), server


class TestCodec:
    def test_request_round_trip(self):
        request = HttpRequest(
            "POST", "/x", headers={"Host": "h", "X-Extra": "1"}, body=b"body"
        )
        decoded, rest = HttpRequest.try_decode(request.encode())
        assert rest == b""
        assert decoded.method == "POST"
        assert decoded.path == "/x"
        assert decoded.headers["x-extra"] == "1"
        assert decoded.body == b"body"

    def test_response_round_trip(self):
        response = HttpResponse(200, body=b"hello", headers={"X-A": "b"})
        decoded, rest = HttpResponse.try_decode(response.encode())
        assert rest == b""
        assert decoded.status == 200
        assert decoded.body == b"hello"
        assert decoded.ok

    def test_incomplete_headers_buffered(self):
        partial = b"GET / HTTP/1.1\r\nHost: x"
        decoded, rest = HttpRequest.try_decode(partial)
        assert decoded is None
        assert rest == partial

    def test_incomplete_body_buffered(self):
        encoded = HttpRequest("POST", "/", body=b"12345").encode()
        decoded, rest = HttpRequest.try_decode(encoded[:-2])
        assert decoded is None

    def test_pipelined_requests(self):
        data = HttpRequest("GET", "/a").encode() + HttpRequest("GET", "/b").encode()
        first, rest = HttpRequest.try_decode(data)
        second, leftover = HttpRequest.try_decode(rest)
        assert first.path == "/a"
        assert second.path == "/b"
        assert leftover == b""

    def test_bad_request_line(self):
        with pytest.raises(HttpError):
            HttpRequest.try_decode(b"NONSENSE\r\n\r\n")

    def test_bad_header_line(self):
        with pytest.raises(HttpError):
            HttpRequest.try_decode(b"GET / HTTP/1.1\r\nbadheader\r\n\r\n")

    def test_bad_status_code(self):
        with pytest.raises(HttpError):
            HttpResponse.try_decode(b"HTTP/1.1 abc Bad\r\n\r\n")

    def test_bad_response_content_length(self):
        with pytest.raises(HttpError, match="Content-Length"):
            HttpResponse.try_decode(b"HTTP/1.1 200 OK\r\nContent-Length: -3\r\n\r\nabc")

    @pytest.mark.parametrize("code", [b"2_00", b"+200", b"2000", b"20"])
    def test_status_code_is_three_digits(self, code):
        # RFC 9112 §4: status-code = 3DIGIT; int() takes the first two.
        response = b"HTTP/1.1 " + code + b" OK\r\nContent-Length: 0\r\n\r\n"
        with pytest.raises(HttpError, match="status code"):
            HttpResponse.try_decode(response)

    def test_status_line_without_reason(self):
        decoded, rest = HttpResponse.try_decode(b"HTTP/1.1 200\r\n\r\n")
        assert (decoded.status, decoded.reason, rest) == (200, "", b"")

    def test_repeated_content_length_request_refused(self):
        # RFC 9112 §6.3: the last value would frame "abcde" and leave
        # "XYZ" as the start of a smuggled pipelined request.
        data = (
            b"POST /report HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 3\r\nContent-Length: 5\r\n\r\nabcdeXYZ"
        )
        with pytest.raises(HttpError, match="repeated Content-Length"):
            HttpRequest.try_decode(data)

    def test_repeated_content_length_response_refused(self):
        data = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nContent-Length: 2\r\n\r\nok"
        with pytest.raises(HttpError, match="repeated Content-Length"):
            HttpResponse.try_decode(data)


class TestHeadMemos:
    def test_decoded_headers_are_fresh_per_message(self):
        data = HttpRequest("POST", "/x", headers={"Host": "h"}, body=b"b").encode()
        first, _ = HttpRequest.try_decode(data)
        first.headers["host"] = "mutated"
        first.headers["x-new"] = "1"
        second, _ = HttpRequest.try_decode(data)
        assert second.headers == {"host": "h", "content-length": "1"}
        response = HttpResponse(200, headers={"X-A": "b"}).encode()
        first, _ = HttpResponse.try_decode(response)
        first.headers.clear()
        second, _ = HttpResponse.try_decode(response)
        assert second.headers == {"x-a": "b", "content-length": "0"}

    def test_head_frame_memo_stays_within_its_bound(self):
        for index in range(HEAD_CACHE_SIZE + 3):
            HttpRequest("GET", f"/{index}").encode()
        info = _encode_head.cache_info()
        assert info.currsize == info.maxsize == HEAD_CACHE_SIZE

    def test_oversized_head_is_encoded_but_not_cached(self):
        value = "v" * _encode_head.max_key_bytes
        key = ("GET / HTTP/1.1", (("X-Pad", value),), 0)
        currsize = _encode_head.cache_info().currsize
        first = _encode_head(key)
        expected = f"GET / HTTP/1.1\r\nX-Pad: {value}\r\nContent-Length: 0\r\n\r\n"
        assert first == expected.encode()
        assert _encode_head(key) is not first
        assert _encode_head.cache_info().currsize == currsize

    @pytest.mark.parametrize(
        "memo, head",
        [
            (_parse_request_head, "GET /{} HTTP/1.1"),
            (_parse_response_head, "HTTP/1.1 200 reason {}"),
        ],
    )
    def test_parse_memo_stays_within_its_bound(self, memo, head):
        for index in range(HEAD_CACHE_SIZE + 3):
            memo(head.format(index).encode())
        info = memo.cache_info()
        assert info.currsize == info.maxsize == HEAD_CACHE_SIZE

    @pytest.mark.parametrize(
        "memo, start_line",
        [
            (_parse_request_head, b"GET / HTTP/1.1"),
            (_parse_response_head, b"HTTP/1.1 200 OK"),
        ],
    )
    def test_oversized_head_is_parsed_but_not_cached(self, memo, start_line):
        head = start_line + b"\r\nX-Pad: " + b"v" * memo.max_key_bytes
        currsize = memo.cache_info().currsize
        first = memo(head)
        assert first[2] == (("x-pad", "v" * memo.max_key_bytes),)
        assert memo(head) is not first
        assert memo.cache_info().currsize == currsize

    @pytest.mark.parametrize(
        "memo, head",
        [
            (
                _parse_request_head,
                b"POST / HTTP/1.1\r\nContent-Length: 1\r\ncontent-length: 1",
            ),
            (_parse_request_head, b"NONSENSE"),
            (_parse_response_head, b"HTTP/1.1 2_00 OK"),
            (_parse_response_head, b"HTTP/1.1 200 OK\r\nbadheader"),
        ],
    )
    def test_bad_head_raises_every_time(self, memo, head):
        misses = memo.cache_info().misses
        for _ in range(2):
            with pytest.raises(HttpError):
                memo(head)
        assert memo.cache_info().misses == misses + 2


class TestClientServer:
    def test_get(self, web):
        _, client, server = web
        response = client.get("www.example", "/")
        assert response.ok
        assert response.body == b"index"
        assert server.requests_handled == 1

    def test_post(self, web):
        _, client, _ = web
        response = client.post("www.example", "/report", b"x" * 100)
        assert response.body == b"got 100"

    def test_404(self, web):
        _, client, _ = web
        assert client.get("www.example", "/missing").status == 404

    def test_handler_exception_becomes_500(self, web):
        net, client, server = web

        def boom(request, remote):
            raise RuntimeError("kaput")

        server.route("GET", "/boom", boom)
        response = client.get("www.example", "/boom")
        assert response.status == 500
        assert b"kaput" in response.body

    def test_malformed_request_gets_400(self, web):
        net, client, server = web
        malformed = [b"NOT HTTP AT ALL\r\n\r\n"] + [
            b"POST /report HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\nbody"
            for length in (b"abc", b"-3", b"1e3", b"9" * 5000)
        ]
        for count, request in enumerate(malformed, start=1):
            sock = client.host.connect("www.example", 80)
            sock.send(request)
            response, _ = HttpResponse.try_decode(sock.recv())
            assert response.status == 400
            assert server.parse_errors == count

    def test_repeated_content_length_gets_400(self, web):
        net, client, server = web
        handled = []
        server.route("POST", "/smuggle", lambda req, remote: handled.append(req))
        sock = client.host.connect("www.example", 80)
        sock.send(
            b"POST /smuggle HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 3\r\nContent-Length: 5\r\n\r\nabcdeXYZ"
        )
        response, _ = HttpResponse.try_decode(sock.recv())
        assert response.status == 400
        assert server.parse_errors == 1
        assert handled == []
        assert server.requests_handled == 0

    def test_keep_alive_multiple_requests(self, web):
        net, client, server = web
        sock = client.host.connect("www.example", 80)
        sock.send(HttpRequest("GET", "/", headers={"Host": "www.example"}).encode())
        first, rest = HttpResponse.try_decode(sock.recv())
        sock.send(HttpRequest("GET", "/", headers={"Host": "www.example"}).encode())
        second, _ = HttpResponse.try_decode(sock.recv())
        assert first.ok and second.ok
        assert server.requests_handled == 2
