"""TLS record and handshake message codec.

Implements the TLS 1.0–1.3 wire format for the messages the probe
exchanges in the clear: records (RFC 5246 §6.2, RFC 8446 §5.1),
ClientHello with the server_name extension (RFC 6066), ServerHello,
Certificate and Alert.  Everything else in TLS happens after the point
at which the probe aborts, so it is deliberately out of scope.
:class:`HandshakeReader` is the one reader of received bytes: the
origin, the probe and both legs of the proxy engine go through it.

TLS 1.3 (RFC 8446) negotiates the real version inside the
supported_versions extension while freezing the legacy version fields
at 0x0303, so this codec stays a *single* lossless hello parser: 1.3
semantics live in helpers over the extension list
(:func:`parse_supported_versions_body`, :func:`parse_key_share_groups`,
:func:`parse_alpn_body`) and in the version-aware properties
``ClientHello.max_offered_version`` / ``ServerHello.selected_version``.
GREASE values (RFC 8701) are plain integers to the codec and survive
parse → re-encode verbatim; only :mod:`repro.tls.fingerprint` filters
them, per the JA3 spec.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

# Record content types.
CONTENT_CHANGE_CIPHER_SPEC = 20
CONTENT_ALERT = 21
CONTENT_HANDSHAKE = 22
CONTENT_APPLICATION_DATA = 23
CONTENT_HEARTBEAT = 24

# Every content type a TLS 1.0–1.2 peer can legitimately put on the
# wire.  Types in this set that a consumer does not handle (CCS,
# heartbeat) are skipped, not fatal; anything outside it cannot be a
# TLS record header at all and aborts the connection.
KNOWN_CONTENT_TYPES = frozenset(
    {
        CONTENT_CHANGE_CIPHER_SPEC,
        CONTENT_ALERT,
        CONTENT_HANDSHAKE,
        CONTENT_APPLICATION_DATA,
        CONTENT_HEARTBEAT,
    }
)

# Handshake message types.
HS_CLIENT_HELLO = 1
HS_SERVER_HELLO = 2
HS_CERTIFICATE = 11
HS_SERVER_HELLO_DONE = 14

# Protocol versions (major, minor).
SSL_3_0 = (3, 0)
TLS_1_0 = (3, 1)
TLS_1_1 = (3, 2)
TLS_1_2 = (3, 3)
TLS_1_3 = (3, 4)

VERSION_NAMES = {
    SSL_3_0: "SSLv3",
    TLS_1_0: "TLSv1.0",
    TLS_1_1: "TLSv1.1",
    TLS_1_2: "TLSv1.2",
    TLS_1_3: "TLSv1.3",
}


def version_name(version: tuple[int, int]) -> str:
    """Human-readable protocol version, e.g. ``TLSv1.2``."""
    return VERSION_NAMES.get(version, f"({version[0]},{version[1]})")

# Extension types.
EXT_SERVER_NAME = 0
EXT_STATUS_REQUEST = 5
EXT_SUPPORTED_GROUPS = 10  # "elliptic_curves" in the 2014-era RFCs
EXT_EC_POINT_FORMATS = 11
EXT_SIGNATURE_ALGORITHMS = 13
EXT_HEARTBEAT = 15
EXT_ALPN = 16
EXT_PADDING = 21
EXT_SESSION_TICKET = 35
EXT_PRE_SHARED_KEY = 41
EXT_SUPPORTED_VERSIONS = 43
EXT_PSK_KEY_EXCHANGE_MODES = 45
EXT_KEY_SHARE = 51
EXT_NEXT_PROTOCOL_NEGOTIATION = 13172
EXT_CHANNEL_ID = 30032
EXT_RENEGOTIATION_INFO = 0xFF01

# GREASE (RFC 8701): reserved values clients sprinkle into cipher,
# group, version and extension lists to keep peers honest about
# ignoring unknowns.  The codec treats them as ordinary integers —
# they round-trip losslessly — and negotiation/fingerprint layers
# filter them with :func:`is_grease`.
GREASE_VALUES = frozenset((v << 8) | v for v in range(0x0A, 0xFB, 0x10))


def is_grease(value: int) -> bool:
    """True for RFC 8701 GREASE values (0x0A0A, 0x1A1A, … 0xFAFA)."""
    return value in GREASE_VALUES


# TLS_FALLBACK_SCSV (RFC 7507): a client retrying a handshake at a
# downgraded version appends this signalling suite; a server whose
# maximum version exceeds the retried offer answers with a fatal
# inappropriate_fallback alert instead of accepting the downgrade.
TLS_FALLBACK_SCSV = 0x5600

# RFC 8446 §4.1.3 downgrade sentinels: a TLS 1.3-capable server that
# negotiates an older version overwrites the last 8 bytes of its
# server random with one of these, so a 1.3-capable client can detect
# a downgrade even when a middlebox strips supported_versions.
DOWNGRADE_SENTINEL_TLS12 = b"DOWNGRD\x01"  # negotiated TLS 1.2
DOWNGRADE_SENTINEL_TLS11 = b"DOWNGRD\x00"  # negotiated TLS 1.1 or below


def stamp_downgrade_sentinel(
    server_random: bytes, negotiated: tuple[int, int]
) -> bytes:
    """Overwrite the random's last 8 bytes with the RFC 8446 sentinel."""
    sentinel = (
        DOWNGRADE_SENTINEL_TLS12
        if negotiated >= TLS_1_2
        else DOWNGRADE_SENTINEL_TLS11
    )
    return server_random[:24] + sentinel


def has_downgrade_sentinel(server_random: bytes) -> bool:
    """True when the random carries either RFC 8446 downgrade sentinel."""
    tail = server_random[-8:]
    return tail in (DOWNGRADE_SENTINEL_TLS12, DOWNGRADE_SENTINEL_TLS11)


def encode_sni_extension_body(server_name: str) -> bytes:
    """The server_name extension body for one host_name entry."""
    name_bytes = server_name.encode("ascii")
    entry = b"\x00" + _encode_vector(name_bytes, 2)  # host_name(0)
    return _encode_vector(entry, 2)


def parse_sni_extension_body(ext_body: bytes) -> str | None:
    """Best-effort host_name from a server_name extension body.

    Malformed SNI must not kill the parse: the hello is preserved
    verbatim either way, so a mangled extension simply yields no name,
    and so does a host_name that is not ASCII (RFC 6066 §3).
    """
    try:
        sni = _Reader(ext_body)
        entries = _Reader(sni.take_vector(2))
        while entries.remaining >= 3:
            name_type = entries.take_int(1)
            name = entries.take_vector(2)
            if name_type == 0:
                return name.decode("ascii")
    except (TlsError, UnicodeDecodeError):
        pass
    return None

def encode_supported_versions_body(versions: tuple[tuple[int, int], ...]) -> bytes:
    """The ClientHello supported_versions body: a 1-byte-length list."""
    packed = b"".join(bytes(version) for version in versions)
    return _encode_vector(packed, 1)


def parse_supported_versions_body(ext_body: bytes) -> tuple[tuple[int, int], ...]:
    """Best-effort version list from a ClientHello supported_versions body."""
    try:
        reader = _Reader(ext_body)
        packed = reader.take_vector(1)
        if len(packed) % 2:
            return ()
        return tuple(
            (packed[i], packed[i + 1]) for i in range(0, len(packed), 2)
        )
    except TlsError:
        return ()


def encode_selected_version_body(version: tuple[int, int]) -> bytes:
    """The ServerHello supported_versions body: the one selected version."""
    return bytes(version)


def parse_selected_version_body(ext_body: bytes) -> tuple[int, int] | None:
    """The selected version from a ServerHello supported_versions body."""
    if len(ext_body) != 2:
        return None
    return (ext_body[0], ext_body[1])


def encode_key_share_body(entries: tuple[tuple[int, bytes], ...]) -> bytes:
    """The ClientHello key_share body: (group, key_exchange) entries."""
    packed = b"".join(
        struct.pack(">H", group) + _encode_vector(key, 2) for group, key in entries
    )
    return _encode_vector(packed, 2)


def encode_server_key_share_body(group: int, key: bytes) -> bytes:
    """The ServerHello key_share body: the single selected entry."""
    return struct.pack(">H", group) + _encode_vector(key, 2)


def parse_key_share_groups(ext_body: bytes) -> tuple[int, ...]:
    """Best-effort group ids from a ClientHello key_share body."""
    try:
        entries = _Reader(_Reader(ext_body).take_vector(2))
        groups = []
        while entries.remaining >= 4:
            groups.append(entries.take_int(2))
            entries.take_vector(2)
        return tuple(groups)
    except TlsError:
        return ()


def encode_alpn_body(protocols: tuple[str, ...]) -> bytes:
    """An ALPN body: a protocol-name list (client offer or server pick)."""
    packed = b"".join(
        _encode_vector(protocol.encode("ascii"), 1) for protocol in protocols
    )
    return _encode_vector(packed, 2)


def parse_alpn_body(ext_body: bytes) -> tuple[str, ...]:
    """Best-effort protocol names from an ALPN extension body."""
    try:
        names = _Reader(_Reader(ext_body).take_vector(2))
        protocols = []
        while names.remaining:
            protocols.append(
                names.take_vector(1).decode("ascii", errors="replace")
            )
        return tuple(protocols)
    except TlsError:
        return ()


# Cipher suites a 2014-era client should refuse: NULL, export-grade
# and RC4/MD5 constructions (values from the TLS registry).  The audit
# battery's downgraded origins negotiate these.
WEAK_CIPHER_SUITES = frozenset(
    {
        0x0000,  # TLS_NULL_WITH_NULL_NULL
        0x0001,  # TLS_RSA_WITH_NULL_MD5
        0x0002,  # TLS_RSA_WITH_NULL_SHA
        0x0003,  # TLS_RSA_EXPORT_WITH_RC4_40_MD5
        0x0004,  # TLS_RSA_WITH_RC4_128_MD5
        0x0008,  # TLS_RSA_EXPORT_WITH_DES40_CBC_SHA
    }
)

# A realistic cipher suite offer (values from the TLS registry).
DEFAULT_CIPHER_SUITES = (
    0x002F,  # TLS_RSA_WITH_AES_128_CBC_SHA
    0x0035,  # TLS_RSA_WITH_AES_256_CBC_SHA
    0x000A,  # TLS_RSA_WITH_3DES_EDE_CBC_SHA
    0xC013,  # TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA
    0xC014,  # TLS_ECDHE_RSA_WITH_AES_256_CBC_SHA
)


class TlsError(ValueError):
    """Raised on malformed TLS framing or handshake bodies."""


@dataclass(frozen=True)
class Record:
    """A TLS record: content type, version, opaque payload."""

    content_type: int
    version: tuple[int, int]
    payload: bytes

    def encode(self) -> bytes:
        if len(self.payload) > 0x4000:
            raise TlsError("record payload exceeds 2^14 bytes")
        return (
            struct.pack(
                ">BBBH",
                self.content_type,
                self.version[0],
                self.version[1],
                len(self.payload),
            )
            + self.payload
        )


def decode_records(data: bytes) -> tuple[list[Record], bytes]:
    """Parse complete records from ``data``; return (records, leftover)."""
    records = []
    offset = 0
    while len(data) - offset >= 5:
        content_type, major, minor, length = struct.unpack_from(">BBBH", data, offset)
        if content_type not in KNOWN_CONTENT_TYPES:
            # A realistic peer may interleave ChangeCipherSpec or
            # heartbeats (handled above by inclusion); a header byte
            # outside the TLS range means the stream is not TLS.
            raise TlsError(f"unknown record content type {content_type}")
        if major != 3 or minor > 4:
            # Every deployed TLS record version is 3.0–3.4 on the wire,
            # and TLS 1.3 *freezes* the field at 0x0303 for all
            # post-hello records (RFC 8446 §5.1) — so 0x0303 atop a 1.3
            # negotiation is legitimate, not garbage, while a header
            # version outside the family means the stream is not TLS.
            raise TlsError(f"implausible record version ({major},{minor})")
        if len(data) - offset - 5 < length:
            break  # incomplete record; caller buffers
        payload = data[offset + 5 : offset + 5 + length]
        records.append(Record(content_type, (major, minor), payload))
        offset += 5 + length
    return records, data[offset:]


@dataclass(frozen=True)
class HandshakeMessage:
    """A raw handshake message: type byte plus body."""

    msg_type: int
    body: bytes

    def encode(self) -> bytes:
        if len(self.body) > 0xFFFFFF:
            raise TlsError("handshake body too large")
        return bytes([self.msg_type]) + len(self.body).to_bytes(3, "big") + self.body


def decode_handshakes(payload: bytes) -> tuple[list[HandshakeMessage], bytes]:
    """Parse complete handshake messages; return (messages, leftover)."""
    messages = []
    offset = 0
    while len(payload) - offset >= 4:
        msg_type = payload[offset]
        length = int.from_bytes(payload[offset + 1 : offset + 4], "big")
        if len(payload) - offset - 4 < length:
            break
        messages.append(
            HandshakeMessage(msg_type, payload[offset + 4 : offset + 4 + length])
        )
        offset += 4 + length
    return messages, payload[offset:]


class HandshakeReader:
    """One peer's TLS stream, read as alert records and handshake messages.

    Records may arrive split across feeds, and one handshake message may
    span several records (RFC 5246 §6.2.1), so the reader buffers both
    tails.  ChangeCipherSpec, heartbeat and application data records are
    skipped.
    """

    def __init__(self) -> None:
        self.pending = b""  # an incomplete record
        self._handshake = b""  # an incomplete handshake message

    @property
    def idle(self) -> bool:
        """True when no incomplete record or message is buffered."""
        return not (self.pending or self._handshake)

    def feed(self, data: bytes) -> list[Record | HandshakeMessage]:
        """The alert records and handshake messages ``data`` completes, in wire order.

        Raises :class:`TlsError` on a header that is not TLS.
        """
        records, self.pending = decode_records(self.pending + data)
        read: list[Record | HandshakeMessage] = []
        for record in records:
            if record.content_type == CONTENT_ALERT:
                read.append(record)
            elif record.content_type == CONTENT_HANDSHAKE:
                messages, self._handshake = decode_handshakes(
                    self._handshake + record.payload
                )
                read += messages
        return read


def encode_handshake_record(
    message: "ClientHello | ServerHello | Certificate | HandshakeMessage",
    version: tuple[int, int] = TLS_1_0,
) -> bytes:
    """Wrap one handshake message in a single record."""
    if not isinstance(message, HandshakeMessage):
        message = message.to_handshake()
    return Record(CONTENT_HANDSHAKE, version, message.encode()).encode()


#: Where the random sits in a hello record, client or server: after the
#: record header (5 bytes), the handshake header (4) and the version (2).
HELLO_RANDOM_AT = 11


def encode_server_flight(
    server_hello: "ServerHello",
    messages: "list[Certificate | HandshakeMessage]",
    offered_version: tuple[int, int],
) -> bytes:
    """Frame a ServerHello-led flight for the wire.

    The ServerHello travels before negotiation completes, so its
    record carries the record-layer version the client offered; the
    records after it speak the version the ServerHello negotiated,
    chunked at the 2^14 record limit (long chains exceed one record).
    Both the genuine-origin server and the proxy's substitute leg
    frame their flights here, so the two can never drift apart — the
    server-leg fingerprint comparison depends on them agreeing on the
    wire rules.
    """
    head = encode_handshake_record(server_hello, version=offered_version)
    payload = b"".join(
        (
            message if isinstance(message, HandshakeMessage)
            else message.to_handshake()
        ).encode()
        for message in messages
    )
    version = server_hello.version
    return head + b"".join(
        Record(CONTENT_HANDSHAKE, version, payload[start : start + 0x4000]).encode()
        for start in range(0, len(payload), 0x4000)
    )


def _encode_vector(data: bytes, length_bytes: int) -> bytes:
    return len(data).to_bytes(length_bytes, "big") + data


class _Reader:
    """Sequential reader with bounds checking."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def finish(self, what: str) -> None:
        """Assert exhaustion: trailing garbage after a parse is fatal.

        Every ``from_body`` parser calls this instead of silently
        ignoring whatever follows the fields it understands — a parser
        that discards trailing bytes cannot be lossless, and losing
        bytes is how the original ``ServerHello`` codec dropped the
        entire extensions block.
        """
        if self.remaining:
            raise TlsError(f"{self.remaining} trailing bytes after {what}")

    def take(self, count: int) -> bytes:
        if self.offset + count > len(self.data):
            raise TlsError("truncated handshake body")
        chunk = self.data[self.offset : self.offset + count]
        self.offset += count
        return chunk

    def take_int(self, count: int) -> int:
        return int.from_bytes(self.take(count), "big")

    def take_vector(self, length_bytes: int) -> bytes:
        return self.take(self.take_int(length_bytes))

    @property
    def remaining(self) -> int:
        return len(self.data) - self.offset


@dataclass(frozen=True)
class ClientHello:
    """A ClientHello, preserved losslessly through parse → re-encode.

    ``extensions`` is the full extension list — ``(type, raw body)``
    pairs in wire order, unknown types included verbatim.  ``None``
    means the hello carries no extensions block at all (distinct from
    an empty block, which old SSLv3 stacks never sent but some 2014
    clients did).  Constructing with ``server_name`` and no explicit
    extension list synthesises the SNI extension, which is all the
    probe's historical hello ever carried.

    Losslessness is what makes ClientHello *fingerprintable*: a proxy
    that replays the client's offer upstream must reproduce every
    extension byte, and :mod:`repro.tls.fingerprint` must see exactly
    what was on the wire.
    """

    client_random: bytes
    server_name: str | None = None
    version: tuple[int, int] = TLS_1_2
    cipher_suites: tuple[int, ...] = DEFAULT_CIPHER_SUITES
    session_id: bytes = b""
    compression_methods: tuple[int, ...] = (0,)
    extensions: tuple[tuple[int, bytes], ...] | None = None

    def __post_init__(self) -> None:
        if len(self.client_random) != 32:
            raise TlsError("client_random must be 32 bytes")
        if self.extensions is None and self.server_name is not None:
            object.__setattr__(
                self,
                "extensions",
                ((EXT_SERVER_NAME, encode_sni_extension_body(self.server_name)),),
            )

    @property
    def extension_types(self) -> tuple[int, ...]:
        """Extension types in wire order (empty when no block)."""
        return tuple(ext_type for ext_type, _ in (self.extensions or ()))

    def extension_body(self, ext_type: int) -> bytes | None:
        """The raw body of the first extension of ``ext_type``, if any."""
        for candidate, body in self.extensions or ():
            if candidate == ext_type:
                return body
        return None

    @property
    def offered_versions(self) -> tuple[tuple[int, int], ...]:
        """Every protocol version this hello offers, GREASE filtered.

        TLS 1.3 clients freeze the legacy version field at 0x0303 and
        list their real offer in supported_versions (RFC 8446 §4.2.1);
        pre-1.3 clients offer exactly the legacy field.
        """
        body = self.extension_body(EXT_SUPPORTED_VERSIONS)
        if body is not None:
            versions = tuple(
                version
                for version in parse_supported_versions_body(body)
                if not is_grease((version[0] << 8) | version[1])
            )
            if versions:
                return versions
        return (self.version,)

    @property
    def max_offered_version(self) -> tuple[int, int]:
        """The highest version this hello offers (supported_versions aware)."""
        return max(self.offered_versions)

    @property
    def alpn_protocols(self) -> tuple[str, ...]:
        """The ALPN protocols this hello offers (empty when none)."""
        body = self.extension_body(EXT_ALPN)
        return parse_alpn_body(body) if body is not None else ()

    def to_handshake(self) -> HandshakeMessage:
        body = bytes(self.version)
        body += self.client_random
        body += _encode_vector(self.session_id, 1)
        suites = b"".join(struct.pack(">H", s) for s in self.cipher_suites)
        body += _encode_vector(suites, 2)
        body += _encode_vector(bytes(self.compression_methods), 1)
        if self.extensions is not None:
            encoded = b"".join(
                struct.pack(">H", ext_type) + _encode_vector(ext_body, 2)
                for ext_type, ext_body in self.extensions
            )
            body += _encode_vector(encoded, 2)
        return HandshakeMessage(HS_CLIENT_HELLO, body)

    @classmethod
    def from_body(cls, body: bytes) -> "ClientHello":
        reader = _Reader(body)
        version = tuple(reader.take(2))
        client_random = reader.take(32)
        session_id = reader.take_vector(1)
        suites_raw = reader.take_vector(2)
        if len(suites_raw) % 2:
            raise TlsError("odd cipher suite vector length")
        suites = tuple(
            struct.unpack(">H", suites_raw[i : i + 2])[0]
            for i in range(0, len(suites_raw), 2)
        )
        compression = tuple(reader.take_vector(1))
        extensions: tuple[tuple[int, bytes], ...] | None = None
        server_name = None
        if reader.remaining:
            ext_reader = _Reader(reader.take_vector(2))
            parsed: list[tuple[int, bytes]] = []
            while ext_reader.remaining:
                ext_type = ext_reader.take_int(2)
                ext_body = ext_reader.take_vector(2)
                parsed.append((ext_type, ext_body))
                if ext_type == EXT_SERVER_NAME and server_name is None:
                    server_name = parse_sni_extension_body(ext_body)
            extensions = tuple(parsed)
        reader.finish("ClientHello body")
        return cls(
            client_random=client_random,
            server_name=server_name,
            version=version,  # type: ignore[arg-type]
            cipher_suites=suites,
            session_id=session_id,
            compression_methods=compression,
            extensions=extensions,
        )


def refuses_fallback(hello: ClientHello, ceiling: tuple[int, int]) -> bool:
    """Whether a server speaking up to ``ceiling`` refuses ``hello`` (RFC 7507)."""
    return TLS_FALLBACK_SCSV in hello.cipher_suites and (
        hello.max_offered_version < min(ceiling, TLS_1_2)
    )


@dataclass(frozen=True)
class ServerHello:
    """A ServerHello, preserved losslessly through parse → re-encode.

    Mirrors :class:`ClientHello`: ``extensions`` is the full extension
    list — ``(type, raw body)`` pairs in wire order, unknown types
    included verbatim — and ``None`` means no extensions block at all
    (distinct from an empty block).  The compression byte the server
    actually chose is preserved rather than assumed null, so a parsed
    hello re-encodes to the exact wire bytes.

    Losslessness is what makes the *server* leg fingerprintable: the
    substitute ServerHello an interception product serves back to the
    client carries the product's chosen cipher, version echo and
    extension set — the JA3S-style dimensions
    :mod:`repro.tls.fingerprint` grades against the origin's expected
    response.
    """

    server_random: bytes
    cipher_suite: int
    version: tuple[int, int] = TLS_1_2
    session_id: bytes = b""
    compression_method: int = 0
    extensions: tuple[tuple[int, bytes], ...] | None = None

    def __post_init__(self) -> None:
        if len(self.server_random) != 32:
            raise TlsError("server_random must be 32 bytes")

    @property
    def extension_types(self) -> tuple[int, ...]:
        """Extension types in wire order (empty when no block)."""
        return tuple(ext_type for ext_type, _ in (self.extensions or ()))

    def extension_body(self, ext_type: int) -> bytes | None:
        """The raw body of the first extension of ``ext_type``, if any."""
        for candidate, body in self.extensions or ():
            if candidate == ext_type:
                return body
        return None

    @property
    def selected_version(self) -> tuple[int, int]:
        """The version this hello actually negotiated.

        A TLS 1.3 ServerHello keeps its legacy version field at 0x0303
        and names the real selection in supported_versions (RFC 8446
        §4.1.3); pre-1.3 servers select via the legacy field.
        """
        body = self.extension_body(EXT_SUPPORTED_VERSIONS)
        if body is not None:
            selected = parse_selected_version_body(body)
            if selected is not None:
                return selected
        return self.version

    @property
    def alpn_protocol(self) -> str | None:
        """The ALPN protocol this hello selected, if any."""
        body = self.extension_body(EXT_ALPN)
        if body is None:
            return None
        protocols = parse_alpn_body(body)
        return protocols[0] if protocols else None

    def to_handshake(self) -> HandshakeMessage:
        body = bytes(self.version)
        body += self.server_random
        body += _encode_vector(self.session_id, 1)
        body += struct.pack(">H", self.cipher_suite)
        body += bytes([self.compression_method])
        if self.extensions is not None:
            encoded = b"".join(
                struct.pack(">H", ext_type) + _encode_vector(ext_body, 2)
                for ext_type, ext_body in self.extensions
            )
            body += _encode_vector(encoded, 2)
        return HandshakeMessage(HS_SERVER_HELLO, body)

    @classmethod
    def from_body(cls, body: bytes) -> "ServerHello":
        reader = _Reader(body)
        version = tuple(reader.take(2))
        server_random = reader.take(32)
        session_id = reader.take_vector(1)
        cipher_suite = reader.take_int(2)
        compression_method = reader.take_int(1)
        extensions: tuple[tuple[int, bytes], ...] | None = None
        if reader.remaining:
            ext_reader = _Reader(reader.take_vector(2))
            parsed: list[tuple[int, bytes]] = []
            while ext_reader.remaining:
                parsed.append((ext_reader.take_int(2), ext_reader.take_vector(2)))
            extensions = tuple(parsed)
        reader.finish("ServerHello body")
        return cls(
            server_random=server_random,
            cipher_suite=cipher_suite,
            version=version,  # type: ignore[arg-type]
            session_id=session_id,
            compression_method=compression_method,
            extensions=extensions,
        )


@dataclass(frozen=True)
class Certificate:
    """The Certificate handshake message: a list of DER certificates."""

    der_chain: tuple[bytes, ...] = field(default_factory=tuple)

    def to_handshake(self) -> HandshakeMessage:
        entries = b"".join(_encode_vector(der, 3) for der in self.der_chain)
        return HandshakeMessage(HS_CERTIFICATE, _encode_vector(entries, 3))

    @classmethod
    def from_body(cls, body: bytes) -> "Certificate":
        reader = _Reader(body)
        entries = _Reader(reader.take_vector(3))
        reader.finish("Certificate body")
        chain = []
        while entries.remaining:
            chain.append(entries.take_vector(3))
        return cls(tuple(chain))


@dataclass(frozen=True)
class Alert:
    """A TLS alert (level 1=warning, 2=fatal)."""

    level: int
    description: int

    def encode_record(self, version: tuple[int, int] = TLS_1_0) -> bytes:
        return Record(
            CONTENT_ALERT, version, bytes([self.level, self.description])
        ).encode()

    @classmethod
    def from_payload(cls, payload: bytes) -> "Alert":
        if len(payload) != 2:
            raise TlsError("alert payload must be 2 bytes")
        return cls(payload[0], payload[1])


# Well-known alert descriptions used by the simulation.
ALERT_CLOSE_NOTIFY = 0
ALERT_HANDSHAKE_FAILURE = 40
ALERT_BAD_CERTIFICATE = 42
ALERT_INAPPROPRIATE_FALLBACK = 86
ALERT_UNRECOGNIZED_NAME = 112
