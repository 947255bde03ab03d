"""The segment reader against the per-row walk it replaced.

``_read_segment`` counts a segment's raw lines and decodes and checks
each distinct counter line once.  The reference here is the walk the
readers made before it: every line decoded afresh by the historical
rule (``json.loads(raw.strip())``), checked by ``_row_kind`` and handed
on one row at a time, stopping at the first torn line.  It stands in
for the reader through the same interface, so ``scan_store``,
``load_store``, ``iter_store_mismatches``, ``compact`` and ``recover``
run once over each and must agree on everything they leave behind:
the tally or records, torn counts, the bytes a heal or a compaction
leaves, and every ``StoreError``.

The generated segments repeat counter lines and carry blank and
whitespace-only lines, ``seal`` headers, mismatch and failure rows, a
torn tail without a newline, a non-UTF-8 line, JSON that is not an
object, an unknown kind and malformed rows on either side of the first
torn line.
"""

import json
import os
import pathlib
import shutil
import tempfile
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.measure import store
from repro.measure.records import CertSummary, MeasurementRecord
from repro.measure.persist import record_to_dict
from repro.measure.store import (
    ReportStore,
    SegmentedStore,
    StoreError,
    _row_kind,
    iter_store_mismatches,
    load_store,
    scan_store,
)
from repro.obs.metrics import MetricsRegistry


def _historical_row(raw: bytes) -> dict | None:
    """The row rule before the fast path: ``ValueError`` for a torn line,
    ``None`` for a blank one, else the decoded object."""
    if not raw.endswith(b"\n"):
        raise ValueError("row has no trailing newline")
    stripped = raw.strip()
    if not stripped:
        return None
    try:
        row = json.loads(stripped)
    except RecursionError as exc:
        raise ValueError("row nests too deeply") from exc
    if type(row) is not dict:
        raise ValueError("row is not a JSON object")
    return row


def _walk_segment(path, cells, take, on_torn=None, heal=False, decode=None):
    """The per-row walk, behind ``_read_segment``'s interface.

    With ``recover()``'s ``_decode_row`` it only finds the torn line;
    otherwise every data row is checked, a counter row summed into
    ``cells`` as it comes and any other row handed to ``take``.
    """
    checked = decode is not store._decode_row
    offset = 0
    torn_at = None
    rows = 0
    with open(path, "rb") as handle:
        for raw in handle:
            try:
                row = _historical_row(raw)
            except ValueError:
                torn_at = offset
                break
            offset += len(raw)
            if row is None or (checked and row.get("t") == "seal"):
                continue
            rows += 1
            if checked and _row_kind(row) == "c":
                cell = row["ht"], row["h"]
                cells[cell] = cells.get(cell, 0) + row["n"]
            else:
                take(row)
    if torn_at is not None:
        if on_torn is not None:
            on_torn(path)
        if heal:
            os.truncate(path, torn_at)
    return rows


def _summary(tag: str) -> CertSummary:
    return CertSummary(
        subject_cn=f"cn-{tag}",
        subject_org=None,
        issuer_cn="CA",
        issuer_org="Org",
        issuer_ou=None,
        serial_number=len(tag),
        key_bits=1024,
        signature_algorithm="sha1WithRSAEncryption",
        fingerprint=f"fp-{tag}",
        public_key_fingerprint=f"pk-{tag}",
    )


def _mismatch_line(ip: int, tag: str, drop: str | None = None) -> bytes:
    record = MeasurementRecord(
        study=2,
        campaign="prop",
        client_ip=f"10.0.0.{ip}",
        country="US",
        hostname="site-a.test",
        host_type="Popular",
        mismatch=True,
        leaf=_summary(tag),
        chain=(_summary(tag),),
    )
    payload = record_to_dict(record)
    if drop is not None:
        del payload[drop]
    return json.dumps({"t": "m", "r": payload}, separators=(",", ":")).encode() + b"\n"


def _counter_line(host_type: str, hostname: str, count: int) -> bytes:
    row = {"t": "c", "ht": host_type, "h": hostname, "n": count}
    return json.dumps(row, separators=(",", ":")).encode() + b"\n"


# Rows every reader accepts; counter lines from a small pool, so they repeat.
SOUND = [
    _counter_line("Popular", "site-a.test", 3),
    _counter_line("Popular", "site-a.test", 1),
    _counter_line("Popular", "site-b.test", 2),
    _counter_line("Business", "site-a.test", 7),
    _counter_line("Business", "site-c.test", 0),
    b'{"t": "c", "ht": "Popular", "h": "site-b.test", "n": 2}\n',
    b'{"t":"c","ht":"Popular","h":"site-a.test","n":3,"t":"c"}\n',
    b'{"t":"c","ht":"Popular","h":"site-a.test","n":5,"t":"seal"}\n',
    _mismatch_line(1, "a"),
    _mismatch_line(2, "bc"),
    b'{"t":"f","k":"probe_failed","n":7}\n',
    b'{"t":"f","k":"report_failed","n":2}\n',
    b"\n",
    b"  \t\n",
    b'{"t":"seal","compacts":[]}\n',
]
# Lines that end a segment's read: not UTF-8, not an object, not JSON.
TORN = [
    b'{"t":"c","ht":"\xff","h":"x","n":1}\n',
    b"[1]\n",
    b"7\n",
    b'{"t":"c","ht":"Popular","h":"site-a.test","n":007}\n',
]
# Lines that decode but that a checked read refuses with a StoreError.
MALFORMED = [
    b'{"t":"c","ht":"Popular","h":"x","n":-1}\n',
    b'{"t":"c","ht":null,"h":"x","n":1}\n',
    b'{"t":"x","n":1}\n',
    b'{"t":"f","k":"no_such","n":1}\n',
    b'{"t":"m","r":{"hostname":"h"}}\n',
]
# A mismatch row the scan accepts and only rebuilding its record refuses.
PARTIAL = _mismatch_line(3, "d", drop="via")

_damage = st.sampled_from(TORN + MALFORMED + [PARTIAL])


@st.composite
def _trees(draw) -> dict[str, bytes]:
    """A store directory, relative path -> segment bytes: sound lines,
    then up to three damaged ones anywhere, then torn tails."""
    segments: list[tuple[str, list[bytes]]] = []
    shards = st.lists(st.sampled_from(["US", "BR", "_meta"]), min_size=1, max_size=3)
    for shard in draw(shards.map(lambda names: sorted(set(names)))):
        count = draw(st.integers(1, 3))
        for index in range(1, count + 1):
            last = index == count
            suffix = ".open.jsonl" if last and draw(st.booleans()) else ".jsonl"
            lines = draw(st.lists(st.sampled_from(SOUND), max_size=16))
            if last and count > 1 and draw(st.integers(0, 3)) == 0:
                # A compaction's header, naming the segment before it.
                header = {"t": "seal", "compacts": [f"seg-{index - 1:06d}.jsonl"]}
                lines.insert(0, json.dumps(header).encode() + b"\n")
            segments.append((f"{shard}/seg-{index:06d}{suffix}", lines))
    for line in draw(st.lists(_damage, max_size=3)):
        _name, lines = draw(st.sampled_from(segments))
        lines.insert(draw(st.integers(0, len(lines))), line)
    tree = {}
    for name, lines in segments:
        if lines and draw(st.integers(0, 3)) == 0:
            # A torn tail: the last line loses its newline, maybe more.
            tail = lines[-1].rstrip(b"\n")
            lines[-1] = tail[: draw(st.integers(0, len(tail)))] or b"{"
        tree[name] = b"".join(lines)
    return tree


def _write(root: pathlib.Path, tree: dict[str, bytes]) -> pathlib.Path:
    shutil.rmtree(root, ignore_errors=True)
    for name, data in tree.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


def _files(root: pathlib.Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _tally_state(tally) -> tuple:
    return (
        list(tally.matched_counts.items()),
        list(tally.mismatch_keys),
        sorted(vars(tally.failures).items()),
        tally.totals_by_country(),
        tally.totals_by_host_type(),
        tally.distinct_proxied_ips(),
    )


def _counters(registry: MetricsRegistry) -> dict:
    return registry.deterministic_snapshot()["counters"]


def _shards(path):
    segments = SegmentedStore(path)
    out = []
    for name in segments.shard_names():
        others: list[dict] = []
        torn: list[str] = []
        cells, rows = segments.read_shard(
            name, others.append, on_torn=lambda p: torn.append(p.name), heal=True
        )
        out.append((name, list(cells.items()), others, rows, torn))
    return out


def _scan(path, heal):
    registry = MetricsRegistry()
    return _tally_state(scan_store(path, registry, heal=heal)), _counters(registry)


def _load(path):
    registry = MetricsRegistry()
    database = load_store(path, registry)
    return _tally_state(database), database.records, _counters(registry)


def _mismatches(path):
    return list(iter_store_mismatches(path))


def _compact(path):
    registry = MetricsRegistry()
    stats = ReportStore(path, registry).compact()
    return stats, _counters(registry)


def _recover(path):
    registry = MetricsRegistry()
    ReportStore(path, registry)
    return _counters(registry)


READERS = {
    "read_shard": _shards,
    "scan": lambda path: _scan(path, heal=False),
    "scan-heal": lambda path: _scan(path, heal=True),
    "load": _load,
    "mismatches": _mismatches,
    "compact": _compact,
    "recover": _recover,
}


def _outcome(read, root: pathlib.Path, tree: dict[str, bytes]):
    """What one reader returns or raises, and the files it leaves."""
    path = _write(root, tree)
    try:
        result = read(path)
    except StoreError as exc:
        result = ("StoreError", str(exc))
    return result, _files(path)


class TestReaderAgainstPerRowWalk:
    @given(tree=_trees())
    @settings(max_examples=150, deadline=None)
    def test_every_reader_agrees_with_the_walk(self, tree):
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            for name, read in READERS.items():
                actual = _outcome(read, root / "actual", tree)
                with mock.patch.object(store, "_read_segment", _walk_segment):
                    expected = _outcome(read, root / "expected", tree)
                assert actual == expected, name
