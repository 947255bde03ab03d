"""HTTP/1.1 request/response framing."""

from __future__ import annotations

from dataclasses import dataclass, field


class HttpError(ValueError):
    """Raised on malformed HTTP framing."""


_CRLF = b"\r\n"
_HEADER_END = b"\r\n\r\n"


def _encode_headers(headers: dict[str, str], body: bytes) -> list[str]:
    lines = []
    seen = {name.lower() for name in headers}
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    if "content-length" not in seen:
        lines.append(f"Content-Length: {len(body)}")
    return lines


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
    headers: dict[str, str] = {}
    for line in block.split(_CRLF):
        if not line:
            continue
        if b":" not in line:
            raise HttpError(f"bad header line {line!r}")
        name, _, value = line.partition(b":")
        headers[name.decode("latin-1").strip().lower()] = value.decode(
            "latin-1"
        ).strip()
    return headers


@dataclass
class HttpRequest:
    """An HTTP request with an optional body."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def encode(self) -> bytes:
        lines = [f"{self.method} {self.path} HTTP/1.1"]
        lines.extend(_encode_headers(self.headers, self.body))
        head = "\r\n".join(lines).encode("latin-1") + _HEADER_END
        return head + self.body

    @classmethod
    def try_decode(cls, data: bytes) -> tuple["HttpRequest | None", bytes]:
        """Decode one request if complete; return (request|None, leftover)."""
        end = data.find(_HEADER_END)
        if end < 0:
            return None, data
        head, rest = data[:end], data[end + 4 :]
        lines = head.split(_CRLF)
        parts = lines[0].decode("latin-1").split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise HttpError(f"bad request line {lines[0]!r}")
        headers = _parse_headers(_CRLF.join(lines[1:]))
        length = _content_length(headers)
        if len(rest) < length:
            return None, data
        return (
            cls(method=parts[0], path=parts[1], headers=headers, body=rest[:length]),
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
        lines = [f"HTTP/1.1 {self.status} {reason}"]
        lines.extend(_encode_headers(self.headers, self.body))
        head = "\r\n".join(lines).encode("latin-1") + _HEADER_END
        return head + self.body

    @classmethod
    def try_decode(cls, data: bytes) -> tuple["HttpResponse | None", bytes]:
        end = data.find(_HEADER_END)
        if end < 0:
            return None, data
        head, rest = data[:end], data[end + 4 :]
        lines = head.split(_CRLF)
        parts = lines[0].decode("latin-1").split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise HttpError(f"bad status line {lines[0]!r}")
        try:
            status = int(parts[1])
        except ValueError as exc:
            raise HttpError(f"bad status code {parts[1]!r}") from exc
        headers = _parse_headers(_CRLF.join(lines[1:]))
        length = _content_length(headers)
        if len(rest) < length:
            return None, data
        reason = parts[2] if len(parts) == 3 else ""
        return (
            cls(status=status, reason=reason, headers=headers, body=rest[:length]),
            rest[length:],
        )

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300
