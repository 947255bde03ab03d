"""Property-based tests for the segmented report store.

Two invariants the paper-scale ingest path rests on:

* **round-trip** — any mix of records, bulk counters and failures
  written through a :class:`ReportStore` (at any batching/segment
  geometry) reads back with the exact in-memory aggregate signature;
* **crash recovery** — truncating a segment at any byte boundary loses
  at most the torn tail: the scan still decodes every complete row
  before the tear, counts exactly one torn segment, and healing makes
  the store clean again.

Reading the live tally mid-batch folds the write-combined matched
cells early, and must change no segment byte.

The row codec's fast paths are checked against the general code they
replace: counter rows against ``json.dumps``, the row decoder against
the reader's historical rule, ``json.loads(raw.strip())`` on each
complete line, and the memoised counter-row path against that rule
plus ``_row_kind``.
"""

import json
import os
import pathlib
import re
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.measure.database import ReportDatabase
from repro.measure.records import CertSummary, MeasurementRecord
from repro.measure.store import (
    ReportStore,
    StoreError,
    _decode_row,
    _row_kind,
    _segment_row,
    _Shard,
    scan_store,
)
from repro.obs.metrics import MetricsRegistry

_COUNTRIES = ["US", "BR", "??", "DE"]
_HOSTS = ["site-a.test", "site-b.test"]
_TYPES = ["Popular", "Business"]


def _summary(tag: str) -> CertSummary:
    return CertSummary(
        subject_cn=f"cn-{tag}",
        subject_org=None,
        issuer_cn="CA",
        issuer_org=f"org-{tag}",
        issuer_ou=None,
        serial_number=len(tag),
        key_bits=1024,
        signature_algorithm="sha1WithRSAEncryption",
        fingerprint=f"fp-{tag}",
        public_key_fingerprint=f"pk-{tag}",
    )


_mismatch = st.builds(
    lambda country, host, htype, ip, tag, chain_len: MeasurementRecord(
        study=1,
        campaign="prop",
        client_ip=f"10.0.0.{ip}",
        country=country,
        hostname=host,
        host_type=htype,
        mismatch=True,
        leaf=_summary(tag),
        chain=tuple(_summary(f"{tag}-{i}") for i in range(chain_len)),
    ),
    country=st.sampled_from(_COUNTRIES),
    host=st.sampled_from(_HOSTS),
    htype=st.sampled_from(_TYPES),
    ip=st.integers(0, 30),
    tag=st.text("abcdef", min_size=1, max_size=4),
    chain_len=st.integers(0, 2),
)

_bulk = st.tuples(
    st.sampled_from(_COUNTRIES),
    st.sampled_from(_TYPES),
    st.sampled_from(_HOSTS),
    st.integers(1, 50),
)

_op = st.one_of(
    _mismatch,
    _bulk,
    st.tuples(
        st.sampled_from(["probe_failed", "report_failed", "connect_failed"]),
        st.integers(1, 3),
    ),
)


def _apply(ops, store, db):
    for op in ops:
        if isinstance(op, MeasurementRecord):
            store.add_mismatch(op)
            db.add_mismatch(op)
        elif len(op) == 4:
            country, htype, host, count = op
            store.add_matched_bulk(country, htype, host, count)
            db.add_matched_bulk(country, htype, host, count)
        else:
            name, count = op
            store.add_failure(name, count)
            setattr(db.failures, name, getattr(db.failures, name) + count)


class TestStoreProperties:
    @given(
        ops=st.lists(_op, max_size=40),
        batch_rows=st.integers(1, 16),
        segment_bytes=st.integers(64, 4096),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_signature(self, ops, batch_rows, segment_bytes):
        with tempfile.TemporaryDirectory() as tmp:
            store = ReportStore(
                os.path.join(tmp, "s"),
                batch_rows=batch_rows,
                segment_bytes=segment_bytes,
            )
            db = ReportDatabase()
            _apply(ops, store, db)
            assert store.aggregator.aggregate_signature() == (
                db.aggregate_signature()
            )
            store.close()
            aggregator = scan_store(os.path.join(tmp, "s"))
            assert aggregator.aggregate_signature() == db.aggregate_signature()
            assert aggregator.totals_by_country() == db.totals_by_country()
            assert aggregator.totals_by_host_type() == db.totals_by_host_type()

    @given(
        ops=st.lists(_op, min_size=3, max_size=25),
        cut=st.integers(1, 500),
    )
    @settings(max_examples=60, deadline=None)
    def test_truncation_loses_at_most_the_tail(self, ops, cut):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s")
            store = ReportStore(path, batch_rows=4, segment_bytes=512)
            db = ReportDatabase()
            _apply(ops, store, db)
            store.close()
            segments = store.segments.segment_paths()
            victim = segments[len(segments) // 2]
            data = victim.read_bytes()
            keep = len(data) - min(cut, len(data) - 1)
            victim.write_bytes(data[:keep])

            registry = MetricsRegistry()
            aggregator = scan_store(path, registry, heal=True)
            counters = registry.deterministic_snapshot()["counters"]
            torn = counters.get("reports.rejected{reason=torn-segment}", 0)
            # Torn iff the cut landed mid-row; a cut exactly on a row
            # boundary leaves a clean (shorter) segment.
            expected_torn = 0 if data[:keep].endswith(b"\n") or keep == 0 else 1
            assert torn == expected_torn
            # Whatever survived is a prefix of the original rows: every
            # aggregate stays <= the uncut value, and healing leaves a
            # store that scans clean.
            assert aggregator.total_measurements <= db.total_measurements
            healed = MetricsRegistry()
            again = scan_store(path, healed)
            assert (
                healed.deterministic_snapshot()["counters"].get(
                    "reports.rejected{reason=torn-segment}", 0
                )
                == 0
            )
            assert again.aggregate_signature() == aggregator.aggregate_signature()

    @given(
        ops=st.lists(_op, max_size=40),
        reads=st.sets(st.integers(0, 40)),
        batch_rows=st.integers(1, 16),
        segment_bytes=st.integers(64, 4096),
    )
    @settings(max_examples=60, deadline=None)
    def test_reading_the_tally_changes_no_byte(
        self, ops, reads, batch_rows, segment_bytes
    ):
        """One op stream written twice: reading ``aggregator`` before the
        ops numbered in ``reads``, then never."""
        with tempfile.TemporaryDirectory() as tmp:
            trees, signatures = [], []
            for read_before in (reads, set()):
                path = pathlib.Path(tmp) / f"s{len(trees)}"
                store = ReportStore(
                    path, batch_rows=batch_rows, segment_bytes=segment_bytes
                )
                db = ReportDatabase()
                for index, op in enumerate(ops):
                    if index in read_before:
                        assert store.aggregator.total_measurements == (
                            db.total_measurements
                        )
                    _apply([op], store, db)
                store.close()
                trees.append(
                    {
                        str(file.relative_to(path)): file.read_bytes()
                        for file in sorted(path.rglob("*"))
                        if file.is_file()
                    }
                )
                signatures.append(store.aggregator.aggregate_signature())
            assert trees[0] == trees[1]
            assert signatures[0] == signatures[1] == db.aggregate_signature()


# Text that stresses JSON escaping: quotes, backslashes, control
# characters, non-ASCII and lone surrogates, mixed with anything else.
_tricky_text = st.text(
    st.one_of(
        st.sampled_from('"\\\x00\x1f\x7f\u2028\xe9\u4e2d\ud800\udfff\U0001f600'),
        st.characters(exclude_categories=()),
    ),
    max_size=12,
)

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _tricky_text,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_tricky_text, inner, max_size=3),
    max_leaves=8,
)

_rows = st.one_of(
    st.fixed_dictionaries(
        {
            "t": st.just("c"),
            "ht": _tricky_text,
            "h": _tricky_text,
            "n": st.one_of(st.integers(1, 2**63), st.sampled_from([0, -1, 1.0])),
        }
    ),
    st.fixed_dictionaries(
        {"t": st.just("f"), "k": _tricky_text, "n": st.integers(1, 9)}
    ),
    st.fixed_dictionaries(
        {"t": st.just("m"), "r": st.dictionaries(_tricky_text, _json_values)}
    ),
    st.dictionaries(_tricky_text, _json_values, max_size=4),
    _json_values,
)

_encodings = st.sampled_from(
    [
        {"separators": (",", ":")},
        {},
        {"separators": (",", ":"), "ensure_ascii": False},
    ]
)

_padding = st.text(" \t\r\x0b\x0c", max_size=3).map(str.encode)
_foreign = st.sampled_from(
    [b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xef\xbb\xbf", b"\x00"]
)


@st.composite
def _lines(draw) -> list[bytes]:
    """Lines as file iteration yields them: valid rows, then altered."""
    encode = draw(_encodings)
    body = json.dumps(draw(_rows), **encode).encode("utf-8", "surrogatepass")
    alteration = draw(
        st.sampled_from(
            ("none", "pad", "crlf", "blank", "truncate")
            + ("flip", "two", "split", "foreign")
            + ("space", "zeros", "retype")
        )
    )
    if alteration == "pad":
        return [draw(_padding) + body + draw(_padding) + b"\n"]
    if alteration == "space":
        return [body + b" \n"]
    if alteration == "zeros":
        # Leading zeros on the count: "n":007 is not JSON.
        return [re.sub(rb'("n": ?)', rb"\g<1>00", body, count=1) + b"\n"]
    if alteration == "retype":
        # A repeated "t" key: the last one wins.
        kind = draw(st.sampled_from([b'"c"', b'"m"', b'"f"', b'"seal"']))
        return [body[:-1] + b',"t":' + kind + b"}\n"]
    if alteration == "crlf":
        return [body + b"\r\n"]
    if alteration == "blank":
        return [draw(_padding) + b"\n"]
    if alteration == "truncate":
        return [(body + b"\n")[: draw(st.integers(0, len(body)))]]
    if alteration == "flip":
        line = bytearray(body + b"\n")
        line[draw(st.integers(0, len(body) - 1))] ^= 1 << draw(st.integers(0, 7))
        return [bytes(line)]
    if alteration == "two":
        other = json.dumps(draw(_rows), **encode).encode("utf-8", "surrogatepass")
        return [body + draw(_padding) + other + b"\n"]
    if alteration == "split":
        cut = draw(st.integers(0, len(body)))
        return [body[:cut] + b"\n", body[cut:] + b"\n"]
    if alteration == "foreign":
        at = draw(st.integers(0, len(body)))
        return [body[:at] + draw(_foreign) + body[at:] + b"\n"]
    return [body + b"\n"]


def _historical(raw: bytes):
    """The segment reader's rule before the fast path."""
    if not raw.endswith(b"\n"):
        return "torn"
    stripped = raw.strip()
    if not stripped:
        return "blank"
    try:
        row = json.loads(stripped)
    except (ValueError, RecursionError):
        return "torn"
    return row if type(row) is dict else "torn"


def _decoded(raw: bytes):
    try:
        row = _decode_row(raw)
    except ValueError:
        return "torn"
    return "blank" if row is None else row


def _read_reference(raw: bytes):
    """What a reader took from one line before the counter-row memo:
    the historical rule, then ``_row_kind`` on every data row."""
    row = _historical(raw)
    if row == "torn":
        return "torn"
    if row == "blank" or row.get("t") == "seal":
        return "skipped"
    try:
        kind = _row_kind(row)
    except StoreError as exc:
        return ("error", str(exc))
    return (row["ht"], row["h"], row["n"]) if kind == "c" else row


def _read(raw: bytes):
    """What a reader takes from one line: ``_segment_row``, then
    ``_row_kind`` on the rows that are not counter cells."""
    try:
        row = _segment_row(raw)
        if row is None:
            return "skipped"
        if type(row) is dict:
            _row_kind(row)
    except ValueError:
        return "torn"
    except StoreError as exc:
        return ("error", str(exc))
    return row


class TestRowCodecReference:
    @given(
        host_type=_tricky_text,
        hostname=_tricky_text,
        counts=st.lists(st.integers(1, 2**63), min_size=1, max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_counter_row_equals_json_dumps(self, host_type, hostname, counts):
        shard = _Shard(pathlib.Path("unused"))
        # The first count builds the cell's cached prefix; later ones reuse it.
        for count in counts:
            expected = json.dumps(
                {"t": "c", "ht": host_type, "h": hostname, "n": count},
                separators=(",", ":"),
            ).encode("utf-8")
            assert shard.counter_row((host_type, hostname), count) == expected

    @given(lines=_lines())
    @settings(max_examples=400, deadline=None)
    def test_decoder_agrees_with_the_historical_rule(self, lines):
        for raw in lines:
            expected = _historical(raw)
            actual = _decoded(raw)
            assert type(actual) is type(expected)
            assert actual == expected

    @given(lines=_lines())
    @settings(max_examples=400, deadline=None)
    def test_counter_row_path_agrees_with_the_historical_rule(self, lines):
        for raw in lines:
            expected = _read_reference(raw)
            # Twice: the first read may fill the memo, the second hits it.
            for _ in range(2):
                actual = _read(raw)
                assert type(actual) is type(expected)
                assert actual == expected
                if type(expected) is tuple:
                    assert [type(v) for v in actual] == [type(v) for v in expected]
