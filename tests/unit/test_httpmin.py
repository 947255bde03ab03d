"""Unit tests for the minimal HTTP layer."""

import pytest

from repro.httpmin import HttpClient, HttpError, HttpRequest, HttpResponse, HttpServer
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

    def test_keep_alive_multiple_requests(self, web):
        net, client, server = web
        sock = client.host.connect("www.example", 80)
        sock.send(HttpRequest("GET", "/", headers={"Host": "www.example"}).encode())
        first, rest = HttpResponse.try_decode(sock.recv())
        sock.send(HttpRequest("GET", "/", headers={"Host": "www.example"}).encode())
        second, _ = HttpResponse.try_decode(sock.recv())
        assert first.ok and second.ok
        assert server.requests_handled == 2
