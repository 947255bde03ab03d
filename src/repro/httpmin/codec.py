"""HTTP/1.1 request/response framing."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util import content_memo


class HttpError(ValueError):
    """Raised on malformed HTTP framing."""


_CRLF = b"\r\n"
_HEADER_END = b"\r\n\r\n"

#: Distinct heads each memo keeps: the report leg sends the same few
#: requests and answers over and over.
HEAD_CACHE_SIZE = 256

HeaderItems = tuple[tuple[str, str], ...]


def _head_bytes(key: tuple[str, HeaderItems, int]) -> int:
    """The text in one ``(start line, header items, body length)`` key."""
    start_line, items, _ = key
    return len(start_line) + sum(len(name) + len(value) for name, value in items)


@content_memo("http.head_frame", HEAD_CACHE_SIZE, size=_head_bytes)
def _encode_head(key: tuple[str, HeaderItems, int]) -> bytes:
    """The head for ``(start line, header items, body length)``, blank line included."""
    start_line, items, length = key
    lines = [start_line, *(f"{name}: {value}" for name, value in items)]
    if all(name.lower() != "content-length" for name, _ in items):
        lines.append(f"Content-Length: {length}")
    return "\r\n".join(lines).encode("latin-1") + _HEADER_END


def _encode(start_line: str, headers: dict[str, str], body: bytes) -> bytes:
    """One message: the memoised head for its start line and headers, then ``body``."""
    return _encode_head((start_line, tuple(headers.items()), len(body))) + body


def _content_length(headers: dict[str, str]) -> int:
    """The declared body length (0 when absent), a non-negative decimal.

    A bare ``int()`` takes ``-3`` and raises ``ValueError``, not
    :class:`HttpError`, on ``abc`` or past 4300 digits; no real body
    needs more than 18.
    """
    value = headers.get("content-length", "0")
    if not (value.isascii() and value.isdigit()) or len(value) > 18:
        raise HttpError(f"bad Content-Length {value!r}")
    return int(value)


def _parse_headers(block: bytes) -> dict[str, str]:
    """Header names (lowercased) to values; a repeated name keeps the last.

    A repeated ``Content-Length`` is refused instead: two lengths leave
    the end of the body ambiguous (RFC 9112 §6.3).
    """
    headers: dict[str, str] = {}
    for line in block.split(_CRLF):
        if not line:
            continue
        if b":" not in line:
            raise HttpError(f"bad header line {line!r}")
        name, _, value = line.partition(b":")
        name = name.decode("latin-1").strip().lower()
        if name == "content-length" and name in headers:
            raise HttpError("repeated Content-Length")
        headers[name] = value.decode("latin-1").strip()
    return headers


@content_memo("http.request_heads", HEAD_CACHE_SIZE)
def _parse_request_head(head: bytes) -> tuple[str, str, HeaderItems, int]:
    """``(method, path, header items, body length)``; raises :class:`HttpError`."""
    line, _, block = head.partition(_CRLF)
    parts = line.decode("latin-1").split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(f"bad request line {line!r}")
    headers = _parse_headers(block)
    return parts[0], parts[1], tuple(headers.items()), _content_length(headers)


@content_memo("http.response_heads", HEAD_CACHE_SIZE)
def _parse_response_head(head: bytes) -> tuple[int, str, HeaderItems, int]:
    """``(status, reason, header items, body length)``; raises :class:`HttpError`.

    The status code is exactly three ASCII digits (RFC 9112 §4); a bare
    ``int()`` would also take ``2_00``, ``+200`` and ``2000``.
    """
    line, _, block = head.partition(_CRLF)
    parts = line.decode("latin-1").split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise HttpError(f"bad status line {line!r}")
    code = parts[1]
    if not (len(code) == 3 and code.isascii() and code.isdigit()):
        raise HttpError(f"bad status code {code!r}")
    headers = _parse_headers(block)
    reason = parts[2] if len(parts) == 3 else ""
    return int(code), reason, tuple(headers.items()), _content_length(headers)


@dataclass
class HttpRequest:
    """An HTTP request with an optional body."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def encode(self) -> bytes:
        return _encode(f"{self.method} {self.path} HTTP/1.1", self.headers, self.body)

    @classmethod
    def try_decode(cls, data: bytes) -> tuple["HttpRequest | None", bytes]:
        """Decode one request if complete; return (request|None, leftover)."""
        end = data.find(_HEADER_END)
        if end < 0:
            return None, data
        method, path, items, length = _parse_request_head(data[:end])
        rest = data[end + 4 :]
        if len(rest) < length:
            return None, data
        return (
            cls(method=method, path=path, headers=dict(items), body=rest[:length]),
            rest[length:],
        )


@dataclass
class HttpResponse:
    """An HTTP response."""

    status: int
    reason: str = ""
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    _REASONS = {
        200: "OK",
        204: "No Content",
        400: "Bad Request",
        404: "Not Found",
        429: "Too Many Requests",
        500: "Internal Server Error",
        503: "Service Unavailable",
    }

    def encode(self) -> bytes:
        reason = self.reason or self._REASONS.get(self.status, "Unknown")
        return _encode(f"HTTP/1.1 {self.status} {reason}", self.headers, self.body)

    @classmethod
    def try_decode(cls, data: bytes) -> tuple["HttpResponse | None", bytes]:
        end = data.find(_HEADER_END)
        if end < 0:
            return None, data
        status, reason, items, length = _parse_response_head(data[:end])
        rest = data[end + 4 :]
        if len(rest) < length:
            return None, data
        return (
            cls(status=status, reason=reason, headers=dict(items), body=rest[:length]),
            rest[length:],
        )

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300
