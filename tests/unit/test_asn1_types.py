"""Unit tests for the typed ASN.1 object model."""

import datetime as dt
import time

import pytest

from repro.asn1.der import Asn1Error, encode_tlv
from repro.asn1.types import (
    MAX_DEPTH,
    BitString,
    Boolean,
    ContextExplicit,
    ContextPrimitive,
    GeneralizedTime,
    IA5String,
    Integer,
    Null,
    ObjectIdentifier,
    OctetString,
    PrintableString,
    Raw,
    Sequence,
    Set,
    UtcTime,
    Utf8String,
    decode,
    decode_all,
)


def round_trip(value):
    decoded, rest = decode(value.encode())
    assert rest == b""
    return decoded


class TestBoolean:
    def test_true_is_ff(self):
        assert Boolean(True).encode() == b"\x01\x01\xff"

    def test_false(self):
        assert Boolean(False).encode() == b"\x01\x01\x00"

    def test_round_trip(self):
        assert round_trip(Boolean(True)) == Boolean(True)
        assert round_trip(Boolean(False)) == Boolean(False)

    def test_bad_length(self):
        with pytest.raises(Asn1Error):
            decode(b"\x01\x02\x00\x00")

    @pytest.mark.parametrize("octet", [0x01, 0x7F, 0x80, 0xFE])
    def test_der_true_is_only_ff(self, octet):
        # BER reads any non-zero octet as TRUE; DER allows 0xFF alone.
        with pytest.raises(Asn1Error):
            decode(bytes([0x01, 0x01, octet]))


class TestInteger:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0, b"\x02\x01\x00"),
            (127, b"\x02\x01\x7f"),
            (128, b"\x02\x02\x00\x80"),
            (256, b"\x02\x02\x01\x00"),
            (-1, b"\x02\x01\xff"),
            (-128, b"\x02\x01\x80"),
            (-129, b"\x02\x02\xff\x7f"),
        ],
    )
    def test_known_encodings(self, value, expected):
        assert Integer(value).encode() == expected

    def test_round_trip_large(self):
        big = 2**2048 - 12345
        assert round_trip(Integer(big)).value == big

    def test_non_minimal_rejected(self):
        with pytest.raises(Asn1Error, match="non-minimal"):
            decode(b"\x02\x02\x00\x01")

    def test_non_minimal_negative_rejected(self):
        with pytest.raises(Asn1Error, match="non-minimal"):
            decode(b"\x02\x02\xff\xff")

    def test_empty_rejected(self):
        with pytest.raises(Asn1Error, match="empty"):
            decode(b"\x02\x00")


class TestBitString:
    def test_round_trip(self):
        assert round_trip(BitString(b"\xaa\xbb")) == BitString(b"\xaa\xbb")

    def test_unused_bits_preserved(self):
        value = round_trip(BitString(b"\xa0", unused_bits=4))
        assert value.unused_bits == 4

    def test_invalid_unused_bits(self):
        with pytest.raises(Asn1Error):
            BitString(b"\x00", unused_bits=8)

    def test_unused_bits_on_empty(self):
        with pytest.raises(Asn1Error):
            BitString(b"", unused_bits=3)


class TestOid:
    @pytest.mark.parametrize(
        "dotted,expected_content",
        [
            ("1.2.840.113549.1.1.11", bytes.fromhex("2a864886f70d01010b")),
            ("2.5.4.3", bytes.fromhex("550403")),
            ("2.16.840.1.101.3.4.2.1", bytes.fromhex("608648016503040201")),
        ],
    )
    def test_known_encodings(self, dotted, expected_content):
        assert ObjectIdentifier(dotted).content() == expected_content

    def test_round_trip(self):
        for dotted in ("0.9.2342", "1.3.6.1.4.1.11129.2.4.2", "2.999.1"):
            assert round_trip(ObjectIdentifier(dotted)).dotted == dotted

    def test_single_arc_rejected(self):
        with pytest.raises(Asn1Error):
            ObjectIdentifier("1")

    def test_bad_root_rejected(self):
        with pytest.raises(Asn1Error):
            ObjectIdentifier("3.1")

    def test_first_arc_range(self):
        with pytest.raises(Asn1Error):
            ObjectIdentifier("0.40")

    @pytest.mark.parametrize(
        "dotted", ["1.2.-0", "1.2.5 ", "1.02.3", " 1.2", "1.2.+3", "1.2.\u0663", "1.2.-5"]
    )
    def test_non_canonical_arcs_rejected_at_construction(self, dotted):
        # int() reads each of these arcs, so they used to construct and
        # encode as some other OID ("1.2.-5" failed only at encode).
        with pytest.raises(Asn1Error, match="bad OID"):
            ObjectIdentifier(dotted)

    def test_name_lookup(self):
        assert ObjectIdentifier("2.5.4.10").name == "O"
        assert ObjectIdentifier("1.2.3.4").name == "1.2.3.4"

    def test_truncated_arc(self):
        with pytest.raises(Asn1Error, match="truncated"):
            decode(b"\x06\x02\x55\x84")

    def test_non_minimal_arc(self):
        with pytest.raises(Asn1Error, match="non-minimal"):
            decode(b"\x06\x03\x55\x80\x03")


class TestStrings:
    @pytest.mark.parametrize(
        "cls,text",
        [
            (Utf8String, "Bitdefender"),
            (Utf8String, "naïve—✓"),
            (PrintableString, "US"),
            (IA5String, "mail@example.com"),
        ],
    )
    def test_round_trip(self, cls, text):
        assert round_trip(cls(text)).value == text

    def test_utf8_tag(self):
        assert Utf8String("a").encode()[0] == 0x0C

    def test_printable_tag(self):
        assert PrintableString("a").encode()[0] == 0x13


class TestTimes:
    def test_utc_time_round_trip(self):
        moment = dt.datetime(2014, 10, 8, 16, 0, 0, tzinfo=dt.timezone.utc)
        assert round_trip(UtcTime(moment)).value == moment

    def test_utc_time_century_rule(self):
        # 49 -> 2049, 50 -> 1950 per RFC 5280.
        decoded, _ = decode(b"\x17\x0d" + b"490101000000Z")
        assert decoded.value.year == 2049
        decoded, _ = decode(b"\x17\x0d" + b"500101000000Z")
        assert decoded.value.year == 1950

    def test_generalized_time_round_trip(self):
        moment = dt.datetime(2014, 1, 6, 8, 30, 15, tzinfo=dt.timezone.utc)
        assert round_trip(GeneralizedTime(moment)).value == moment

    def test_bad_utc_time(self):
        with pytest.raises(Asn1Error):
            decode(b"\x17\x0d" + b"991301000000Z")

    # int() reads " 4" and "+4" as 4 and raised a bare ValueError on "A4".
    @pytest.mark.parametrize(
        "encoded",
        [
            b"\x17\x0dA40101000000Z",
            b"\x17\x0d 40101000000Z",
            b"\x17\x0d+40101000000Z",
            b"\x17\x0d1401 1000000Z",
            b"\x18\x0f+0140101000000Z",
            b"\x18\x0f 0140101000000Z",
        ],
        ids=["utc-A4", "utc-space", "utc-plus", "utc-space-day", "gen-plus", "gen-space"],
    )
    def test_non_digit_time_field_is_an_asn1_error(self, encoded):
        with pytest.raises(Asn1Error):
            decode(encoded)

    def test_naive_datetime_becomes_utc(self):
        value = UtcTime(dt.datetime(2014, 6, 1, 12, 0, 0))
        assert value.value.tzinfo is dt.timezone.utc


class TestConstructed:
    def test_sequence_round_trip(self):
        seq = Sequence([Integer(5), Utf8String("x"), Null()])
        assert round_trip(seq) == seq

    def test_nested_sequences(self):
        inner = Sequence([Integer(1)])
        outer = Sequence([inner, Sequence([inner, inner])])
        assert round_trip(outer) == outer

    def test_set_sorts_encodings(self):
        # DER SET OF must sort member encodings; INTEGER 1 sorts before NULL
        # because tag 0x02 < 0x05.
        unsorted = Set([Null(), Integer(1)])
        assert unsorted.encode() == Set([Integer(1), Null()]).encode()

    def test_sequence_indexing(self):
        seq = Sequence([Integer(1), Integer(2)])
        assert seq[0] == Integer(1)
        assert len(seq) == 2
        assert [item.value for item in seq] == [1, 2]

    def test_context_explicit_round_trip(self):
        wrapped = ContextExplicit(3, Sequence([Integer(7)]))
        decoded = round_trip(wrapped)
        assert isinstance(decoded, ContextExplicit)
        assert decoded.number == 3
        assert decoded.inner == Sequence([Integer(7)])

    def test_context_primitive_round_trip(self):
        value = ContextPrimitive(2, b"www.example.com")
        decoded = round_trip(value)
        assert decoded == value

    def test_unknown_tag_preserved_as_raw(self):
        blob = b"\x45\x03abc"  # application-class tag
        decoded, rest = decode(blob)
        assert isinstance(decoded, Raw)
        assert decoded.encode() == blob
        assert rest == b""


class TestDecodeAll:
    def test_multiple_values(self):
        data = Integer(1).encode() + Null().encode() + OctetString(b"z").encode()
        values = decode_all(data)
        assert values == [Integer(1), Null(), OctetString(b"z")]

    def test_empty(self):
        assert decode_all(b"") == []

    def test_time_is_linear_in_element_count(self):
        # A hostile flat SEQUENCE of many small elements.  Slicing off
        # the undecoded tail after each element made this quadratic:
        # 4x the elements took ~15x the time, where linear gives ~4x.
        inputs = [
            encode_tlv(0x30, OctetString(bytes(32)).encode() * count)
            for count in (8_000, 32_000)
        ]
        best = [float("inf")] * len(inputs)
        # Interleaved rounds, so a slow spell of the host hits both sizes.
        for _ in range(5):
            for index, data in enumerate(inputs):
                start = time.perf_counter()
                decode(data)
                best[index] = min(best[index], time.perf_counter() - start)
        assert best[1] / best[0] < 8


class TestNestingBound:
    @staticmethod
    def nested(tag: int, levels: int) -> bytes:
        data = Null().encode()
        for _ in range(levels):
            data = encode_tlv(tag, data)
        return data

    def test_bound_admits_its_own_depth(self):
        decoded, rest = decode(self.nested(0x30, MAX_DEPTH))
        assert rest == b""
        for _ in range(MAX_DEPTH):
            decoded = decoded[0]
        assert decoded == Null()

    @pytest.mark.parametrize("levels", [MAX_DEPTH + 1, 3000])
    def test_deeper_sequences_raise_asn1_error(self, levels):
        with pytest.raises(Asn1Error, match="nesting deeper"):
            decode(self.nested(0x30, levels))

    def test_deep_explicit_tags_stay_bounded(self):
        # An over-deep explicit wrapper degrades to Raw at the bound
        # instead of recursing on.
        decoded, _ = decode(self.nested(0xA0, 3000))
        for _ in range(MAX_DEPTH):
            decoded = decoded.inner
        assert isinstance(decoded, Raw)
