"""Typed ASN.1 value model with DER encode/decode.

Every class carries exactly the state its DER encoding needs, encodes
canonically, and round-trips through :func:`decode`.  Unknown tags
decode to :class:`Raw` so foreign structures survive re-encoding
byte-exactly — important because the measurement pipeline must report
certificates exactly as received.
"""

from __future__ import annotations

import datetime as _dt
import re
from dataclasses import dataclass, field

from repro.asn1 import der
from repro.asn1.der import Asn1Error


class Asn1Value:
    """Base class for all ASN.1 values."""

    tag: int = -1

    def encode(self) -> bytes:
        """Return the full DER encoding (tag + length + content)."""
        return der.encode_tlv(self.tag, self.content())

    def content(self) -> bytes:
        """Return the content octets (without tag/length)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Boolean(Asn1Value):
    """ASN.1 BOOLEAN; DER requires 0xFF for TRUE."""

    value: bool
    tag: int = field(default=der.TAG_BOOLEAN, init=False, repr=False)

    def content(self) -> bytes:
        return b"\xff" if self.value else b"\x00"

    @classmethod
    def from_content(cls, content: bytes) -> "Boolean":
        if content == b"\xff":
            return cls(True)
        if content == b"\x00":
            return cls(False)
        raise Asn1Error("BOOLEAN content must be the one octet 0x00 or 0xFF")


@dataclass(frozen=True)
class Integer(Asn1Value):
    """ASN.1 INTEGER holding an arbitrary-precision Python int."""

    value: int
    tag: int = field(default=der.TAG_INTEGER, init=False, repr=False)

    def content(self) -> bytes:
        value = self.value
        if value == 0:
            return b"\x00"
        length = (value.bit_length() + 8) // 8 if value > 0 else None
        if value > 0:
            return value.to_bytes(length, "big")
        # Two's complement for negatives.
        length = 1
        while not -(1 << (8 * length - 1)) <= value < (1 << (8 * length - 1)):
            length += 1
        return value.to_bytes(length, "big", signed=True)

    @classmethod
    def from_content(cls, content: bytes) -> "Integer":
        if not content:
            raise Asn1Error("INTEGER with empty content")
        if len(content) > 1:
            if content[0] == 0x00 and not content[1] & 0x80:
                raise Asn1Error("non-minimal INTEGER (leading zero)")
            if content[0] == 0xFF and content[1] & 0x80:
                raise Asn1Error("non-minimal INTEGER (leading ones)")
        return cls(int.from_bytes(content, "big", signed=True))


@dataclass(frozen=True)
class BitString(Asn1Value):
    """ASN.1 BIT STRING.

    Only whole-byte strings (``unused_bits == 0``) are produced by this
    code base, but arbitrary unused-bit counts are preserved on decode
    so foreign certificates round-trip.
    """

    data: bytes
    unused_bits: int = 0
    tag: int = field(default=der.TAG_BIT_STRING, init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.unused_bits <= 7:
            raise Asn1Error("unused_bits must be 0..7")
        if self.unused_bits and not self.data:
            raise Asn1Error("unused bits in empty BIT STRING")

    def content(self) -> bytes:
        return bytes([self.unused_bits]) + self.data

    @classmethod
    def from_content(cls, content: bytes) -> "BitString":
        if not content:
            raise Asn1Error("BIT STRING with empty content")
        return cls(content[1:], content[0])


@dataclass(frozen=True)
class OctetString(Asn1Value):
    """ASN.1 OCTET STRING."""

    data: bytes
    tag: int = field(default=der.TAG_OCTET_STRING, init=False, repr=False)

    def content(self) -> bytes:
        return self.data

    @classmethod
    def from_content(cls, content: bytes) -> "OctetString":
        return cls(content)


@dataclass(frozen=True)
class Null(Asn1Value):
    """ASN.1 NULL."""

    tag: int = field(default=der.TAG_NULL, init=False, repr=False)

    def content(self) -> bytes:
        return b""

    @classmethod
    def from_content(cls, content: bytes) -> "Null":
        if content:
            raise Asn1Error("NULL with non-empty content")
        return cls()


#: A canonical dotted OID: arcs of ASCII digits without leading zeros
#: (``int()`` would also read ``"-0"``, ``" 5"``, ``"02"`` and ``"٣"``).
_DOTTED_OID = re.compile(r"(?:0|[1-9][0-9]*)(?:\.(?:0|[1-9][0-9]*))*")


@dataclass(frozen=True)
class ObjectIdentifier(Asn1Value):
    """ASN.1 OBJECT IDENTIFIER held as a dotted string, e.g. ``2.5.4.3``."""

    dotted: str
    tag: int = field(default=der.TAG_OID, init=False, repr=False)

    def __post_init__(self) -> None:
        if _DOTTED_OID.fullmatch(self.dotted) is None:
            raise Asn1Error(f"bad OID {self.dotted!r}")
        arcs = self.arcs()
        if len(arcs) < 2:
            raise Asn1Error(f"OID needs at least two arcs: {self.dotted!r}")
        if arcs[0] > 2 or (arcs[0] < 2 and arcs[1] > 39):
            raise Asn1Error(f"invalid OID root arcs: {self.dotted!r}")

    def arcs(self) -> tuple[int, ...]:
        return tuple(int(part) for part in self.dotted.split("."))

    @property
    def name(self) -> str:
        """Human-readable name if registered, else the dotted form."""
        from repro.asn1.oids import oid_name

        return oid_name(self.dotted)

    def content(self) -> bytes:
        arcs = self.arcs()
        out = bytearray(_encode_base128(arcs[0] * 40 + arcs[1]))
        for arc in arcs[2:]:
            out.extend(_encode_base128(arc))
        return bytes(out)

    @classmethod
    def from_content(cls, content: bytes) -> "ObjectIdentifier":
        if not content:
            raise Asn1Error("OID with empty content")
        values = []
        acc = 0
        started = False
        for i, byte in enumerate(content):
            if not started and byte == 0x80:
                raise Asn1Error("non-minimal OID arc")
            started = True
            acc = (acc << 7) | (byte & 0x7F)
            if not byte & 0x80:
                values.append(acc)
                acc = 0
                started = False
        if started:
            raise Asn1Error("truncated OID arc")
        first = values[0]
        if first < 40:
            arcs = [0, first]
        elif first < 80:
            arcs = [1, first - 40]
        else:
            arcs = [2, first - 80]
        arcs.extend(values[1:])
        return cls(".".join(str(a) for a in arcs))


def _encode_base128(value: int) -> bytes:
    if value < 0:
        raise Asn1Error("negative OID arc")
    chunks = [value & 0x7F]
    value >>= 7
    while value:
        chunks.append(0x80 | (value & 0x7F))
        value >>= 7
    chunks.reverse()
    return bytes(chunks)


class _StringValue(Asn1Value):
    """Shared behaviour for the ASN.1 character-string family."""

    encoding = "ascii"

    def __init__(self, value: str) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.value!r})"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.value == other.value

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.value))

    def content(self) -> bytes:
        return self.value.encode(self.encoding)

    @classmethod
    def from_content(cls, content: bytes):
        try:
            return cls(content.decode(cls.encoding))
        except UnicodeDecodeError as exc:
            raise Asn1Error(f"bad {cls.__name__} content") from exc


class Utf8String(_StringValue):
    tag = der.TAG_UTF8_STRING
    encoding = "utf-8"


class PrintableString(_StringValue):
    tag = der.TAG_PRINTABLE_STRING


class TeletexString(_StringValue):
    # Real TeletexString is T.61; latin-1 is the universal in-practice reading.
    tag = der.TAG_TELETEX_STRING
    encoding = "latin-1"


class IA5String(_StringValue):
    tag = der.TAG_IA5_STRING


def _digits(text: str) -> bool:
    """True if ``text`` is all ASCII digits (``int()`` also takes ``' 4'``, ``'+4'``)."""
    return text.isascii() and text.isdigit()


class UtcTime(Asn1Value):
    """ASN.1 UTCTime (two-digit year, as used by certificate validity)."""

    tag = der.TAG_UTC_TIME

    def __init__(self, value: _dt.datetime) -> None:
        if value.tzinfo is None:
            value = value.replace(tzinfo=_dt.timezone.utc)
        self.value = value.astimezone(_dt.timezone.utc).replace(microsecond=0)

    def __repr__(self) -> str:
        return f"UtcTime({self.value.isoformat()})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UtcTime) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("UtcTime", self.value))

    def content(self) -> bytes:
        return self.value.strftime("%y%m%d%H%M%SZ").encode("ascii")

    @classmethod
    def from_content(cls, content: bytes) -> "UtcTime":
        text = content.decode("ascii", errors="replace")
        if len(text) != 13 or not text.endswith("Z") or not _digits(text[:12]):
            raise Asn1Error(f"bad UTCTime {text!r}")
        year = int(text[0:2])
        # RFC 5280: YY >= 50 means 19YY, else 20YY.
        year += 1900 if year >= 50 else 2000
        try:
            value = _dt.datetime(
                year,
                int(text[2:4]),
                int(text[4:6]),
                int(text[6:8]),
                int(text[8:10]),
                int(text[10:12]),
                tzinfo=_dt.timezone.utc,
            )
        except ValueError as exc:
            raise Asn1Error(f"bad UTCTime {text!r}") from exc
        return cls(value)


class GeneralizedTime(Asn1Value):
    """ASN.1 GeneralizedTime (four-digit year)."""

    tag = der.TAG_GENERALIZED_TIME

    def __init__(self, value: _dt.datetime) -> None:
        if value.tzinfo is None:
            value = value.replace(tzinfo=_dt.timezone.utc)
        self.value = value.astimezone(_dt.timezone.utc).replace(microsecond=0)

    def __repr__(self) -> str:
        return f"GeneralizedTime({self.value.isoformat()})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GeneralizedTime) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("GeneralizedTime", self.value))

    def content(self) -> bytes:
        return self.value.strftime("%Y%m%d%H%M%SZ").encode("ascii")

    @classmethod
    def from_content(cls, content: bytes) -> "GeneralizedTime":
        text = content.decode("ascii", errors="replace")
        if len(text) != 15 or not text.endswith("Z") or not _digits(text[:14]):
            raise Asn1Error(f"bad GeneralizedTime {text!r}")
        try:
            value = _dt.datetime(
                int(text[0:4]),
                int(text[4:6]),
                int(text[6:8]),
                int(text[8:10]),
                int(text[10:12]),
                int(text[12:14]),
                tzinfo=_dt.timezone.utc,
            )
        except ValueError as exc:
            raise Asn1Error(f"bad GeneralizedTime {text!r}") from exc
        return cls(value)


class Sequence(Asn1Value):
    """ASN.1 SEQUENCE of arbitrary values."""

    tag = der.TAG_SEQUENCE

    def __init__(self, items: list[Asn1Value] | tuple[Asn1Value, ...] = ()) -> None:
        self.items = list(items)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.items!r})"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.items == other.items

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index):
        return self.items[index]

    def __iter__(self):
        return iter(self.items)

    def content(self) -> bytes:
        return b"".join(item.encode() for item in self.items)


class Set(Sequence):
    """ASN.1 SET (DER requires sorted encodings; enforced on encode)."""

    tag = der.TAG_SET

    def content(self) -> bytes:
        return b"".join(sorted(item.encode() for item in self.items))


class ContextExplicit(Asn1Value):
    """EXPLICIT [n] context-specific constructed wrapper."""

    def __init__(self, number: int, inner: Asn1Value) -> None:
        if not 0 <= number <= 30:
            raise Asn1Error("context tag number out of range")
        self.number = number
        self.inner = inner
        self.tag = der.CLASS_CONTEXT | der.CONSTRUCTED | number

    def __repr__(self) -> str:
        return f"ContextExplicit({self.number}, {self.inner!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ContextExplicit)
            and self.number == other.number
            and self.inner == other.inner
        )

    def content(self) -> bytes:
        return self.inner.encode()

    @classmethod
    def from_tag_content(
        cls, tag: int, content: bytes, depth: int = 0
    ) -> "ContextExplicit":
        inner, end = _decode_at(content, 0, depth)
        if end != len(content):
            raise Asn1Error("trailing data inside explicit tag")
        return cls(tag & 0x1F, inner)


class ContextPrimitive(Asn1Value):
    """IMPLICIT [n] context-specific primitive value (opaque bytes)."""

    def __init__(self, number: int, data: bytes) -> None:
        if not 0 <= number <= 30:
            raise Asn1Error("context tag number out of range")
        self.number = number
        self.data = data
        self.tag = der.CLASS_CONTEXT | number

    def __repr__(self) -> str:
        return f"ContextPrimitive({self.number}, {self.data!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ContextPrimitive)
            and self.number == other.number
            and self.data == other.data
        )

    def content(self) -> bytes:
        return self.data


class Raw(Asn1Value):
    """A pre-encoded or unrecognised TLV preserved verbatim."""

    def __init__(self, tag: int, raw_content: bytes) -> None:
        self.tag = tag
        self.raw_content = raw_content

    def __repr__(self) -> str:
        return f"Raw(tag=0x{self.tag:02x}, {len(self.raw_content)} bytes)"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Raw)
            and self.tag == other.tag
            and self.raw_content == other.raw_content
        )

    def content(self) -> bytes:
        return self.raw_content


_UNIVERSAL_DECODERS = {
    der.TAG_BOOLEAN: Boolean.from_content,
    der.TAG_INTEGER: Integer.from_content,
    der.TAG_BIT_STRING: BitString.from_content,
    der.TAG_OCTET_STRING: OctetString.from_content,
    der.TAG_NULL: Null.from_content,
    der.TAG_OID: ObjectIdentifier.from_content,
    der.TAG_UTF8_STRING: Utf8String.from_content,
    der.TAG_PRINTABLE_STRING: PrintableString.from_content,
    der.TAG_TELETEX_STRING: TeletexString.from_content,
    der.TAG_IA5_STRING: IA5String.from_content,
    der.TAG_UTC_TIME: UtcTime.from_content,
    der.TAG_GENERALIZED_TIME: GeneralizedTime.from_content,
}
_CONSTRUCTED_TYPES = {der.TAG_SEQUENCE: Sequence, der.TAG_SET: Set}

#: Deepest nesting of constructed values :func:`decode` accepts.  Real
#: certificates nest fewer than 10 levels; without a bound, hostile
#: nesting would hit Python's recursion limit instead of raising
#: :class:`Asn1Error`.
MAX_DEPTH = 32


def decode(data: bytes, offset: int = 0, depth: int = 0) -> tuple[Asn1Value, bytes]:
    """Decode one DER value; return ``(value, remaining_bytes)``.

    ``depth`` counts the constructed values enclosing this one.
    """
    value, end = _decode_at(data, offset, depth)
    return value, data[end:]


def decode_all(data: bytes, depth: int = 0) -> list[Asn1Value]:
    """Decode consecutive DER values until ``data`` is exhausted."""
    values = []
    offset = 0
    while offset < len(data):
        value, offset = _decode_at(data, offset, depth)
        values.append(value)
    return values


def _decode_at(data: bytes, offset: int, depth: int) -> tuple[Asn1Value, int]:
    """Decode the value at ``offset``; return it and the offset just past it.

    Walking offsets instead of slicing off the remainder keeps decoding
    linear in the input: a hostile flat SEQUENCE of many tiny elements
    would otherwise copy its tail once per element.
    """
    if depth > MAX_DEPTH:
        raise Asn1Error(f"nesting deeper than {MAX_DEPTH} levels")
    tag, content, end = der.read_tlv(data, offset)
    decoder = _UNIVERSAL_DECODERS.get(tag)
    if decoder is not None:
        return decoder(content), end
    constructed = _CONSTRUCTED_TYPES.get(tag)
    if constructed is not None:
        return constructed(decode_all(content, depth + 1)), end
    if tag & 0xC0 == der.CLASS_CONTEXT:
        if tag & der.CONSTRUCTED:
            try:
                return ContextExplicit.from_tag_content(tag, content, depth + 1), end
            except Asn1Error:
                return Raw(tag, content), end
        return ContextPrimitive(tag & 0x1F, content), end
    return Raw(tag, content), end
