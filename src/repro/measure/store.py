"""Append-only segmented on-disk report store.

The paper's collection phase banked 12.3M reports; holding that many
records in a Python process is exactly the wrong shape.  This module
keeps them on disk:

* :class:`SegmentedStore` — the disk format.  One directory per
  country shard, append-only JSONL segments inside it.  The active
  segment is written as ``seg-NNNNNN.open.jsonl`` and atomically
  renamed (sealed) once it crosses the spill threshold, so readers
  only ever see either a sealed immutable segment or a clearly-marked
  active one.  A torn tail — the half-written line a crash leaves
  behind — is detected on scan and healed by truncating to the last
  complete row, counted under ``reports.rejected{reason=torn-segment}``.
* :class:`ReportStore` — batched ingest into it, with a
  :class:`~repro.measure.database.ReportTally` beside the segments:
  the same counts and query surface (Tables 3/7 breakdowns, failure
  ledger, distinct proxied IPs, ``aggregate_signature``) as the
  in-memory database, kept at ingest time without holding a record.
  :func:`scan_store` rebuilds that tally from the segments, and
  :func:`load_store` a full database.

The throughput story: the store pays per distinct cell or line, not
per report.  A matched append is one increment of a write-combining
counter keyed by (country, host type, hostname); a flush folds each
buffered cell once into the tally and its shard's counter rows, and
one batched ``write()`` per shard writes the lot (``reports.batches``)
every ``batch_rows`` appends.  On the way back, :func:`_read_segment`
streams each segment and only counts a counter line it has already
seen there; a bounded memo (``store.counter_rows``) decodes and checks
each distinct counter line once across segments, and the readers sum
a shard's counter cells before adding each to their tally once.

Row kinds, one JSON object per line:

``{"t": "m", "r": {...}}``
    one mismatch record, full fidelity (persist.py's record dict);
``{"t": "c", "ht": ..., "h": ..., "n": N}``
    N matched measurements for (shard country, host type, hostname);
``{"t": "f", "k": ..., "n": N}``
    a failure-ledger increment (lives in the ``_meta`` shard);
``{"t": "seal", "compacts": [...]}``
    compaction header: this segment replaces the named ones.  Readers
    skip replaced segments that a crash between rename and unlink left
    behind, so compaction never double-counts.
"""

from __future__ import annotations

import json
import os
import pathlib
from collections import Counter
from typing import Callable, Iterator

from repro.measure.database import (
    FAILURE_NAMES,
    ReportDatabase,
    ReportSink,
    ReportTally,
)
from repro.measure.persist import record_from_dict, record_to_dict
from repro.measure.records import MeasurementRecord
from repro.obs.metrics import INGEST_BATCH_BUCKETS, MetricsRegistry
from repro.util import content_memo


class StoreError(Exception):
    """Raised on a malformed or inconsistent store directory."""


class InjectedCrash(RuntimeError):
    """A crash hook killed the writer at a named crash point.

    Raised *by* a crash hook (see ``ReportStore.crash_hook``) and
    re-raised by the store after it has simulated process death:
    pending appends are gone, the active segments are abandoned
    (optionally with a torn half-row), and the instance refuses further
    appends.  Recovery is a fresh :class:`ReportStore` on the same
    directory plus a replay of the operations ``ops_durable`` did not
    cover — :class:`repro.faults.recovery.ResilientStore` does exactly
    that.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"injected crash at store point {point!r}")
        self.point = point


_META_SHARD = "_meta"
_SEGMENT_PREFIX = "seg-"
_OPEN_SUFFIX = ".open.jsonl"
_SEALED_SUFFIX = ".jsonl"


def _shard_name(country: str) -> str:
    """Filesystem-safe shard directory name for a country code.

    Non-alphanumeric characters are percent-quoted, so ``"??"`` (the
    unknown-country bucket) gets a well-defined directory and can never
    collide with the reserved ``_meta`` shard.
    """
    return "".join(c if c.isalnum() else f"%{ord(c):02X}" for c in country) or "%00"


def _shard_country(name: str) -> str:
    out = []
    i = 0
    while i < len(name):
        if name[i] == "%" and i + 2 < len(name):
            out.append(chr(int(name[i + 1 : i + 3], 16)))
            i += 3
        else:
            out.append(name[i])
            i += 1
    return "".join(out)


def _segment_index(name: str) -> int:
    stem = name[len(_SEGMENT_PREFIX) :]
    return int(stem.split(".", 1)[0])


_raw_decode = json.JSONDecoder().raw_decode


def _decode_row(raw: bytes) -> dict | None:
    """Decode one segment line as file iteration yields it.

    Returns the row, or ``None`` for a blank line.  Raises
    :class:`ValueError` for a torn row: no trailing newline, or a line
    that ``json.loads(raw.strip())`` rejects or decodes to something
    other than a JSON object.  The fast path — one UTF-8 object ending
    exactly at the newline, which is every row this module writes — is
    exact: it accepts only lines that rule maps to the same dict, and
    everything else goes through the rule itself.
    """
    if not raw.endswith(b"\n"):
        raise ValueError("row has no trailing newline")
    try:
        text = raw.decode("utf-8")
        row, end = _raw_decode(text)
    except (ValueError, RecursionError):
        pass
    else:
        if end == len(text) - 1 and type(row) is dict:
            return row
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


def _is_mismatch_payload(payload: object) -> bool:
    """Whether a mismatch row holds every field the aggregate keys on."""
    if type(payload) is not dict:
        return False
    leaf, chain = payload.get("leaf"), payload.get("chain")
    return (
        payload.get("mismatch") is True
        and all(
            type(payload.get(name)) is str
            for name in ("hostname", "client_ip", "campaign", "host_type")
        )
        and type(leaf) is dict
        and type(leaf.get("fingerprint")) is str
        and type(leaf.get("serial_number")) is int
        and type(chain) is list
        and all(type(c) is dict and type(c.get("fingerprint")) is str for c in chain)
    )


def _row_kind(row: dict) -> str:
    """A data row's kind, once the fields its readers use are checked.

    Raises :class:`StoreError` naming the kind for an unknown kind and
    for a known kind with a missing or ill-typed field, so damage that
    still decodes never escapes a reader as a ``KeyError`` or corrupts
    an aggregate.
    """
    kind = row.get("t")
    count = row.get("n")
    counted = type(count) is int and count >= 0
    if kind == "c":
        valid = counted and type(row.get("ht")) is str and type(row.get("h")) is str
    elif kind == "m":
        valid = _is_mismatch_payload(row.get("r"))
    elif kind == "f":
        valid = counted and row.get("k") in FAILURE_NAMES
    else:
        raise StoreError(f"unknown row type {kind!r}")
    if not valid:
        raise StoreError(f"malformed {kind!r} row")
    return kind


#: Distinct counter lines ``store.counter_rows`` keeps decoded; a line
#: over 4 KiB is decoded afresh each time.
COUNTER_ROW_CACHE_SIZE = 4096

_COUNTER_HEAD = b'{"t":"c",'


@content_memo("store.counter_rows", COUNTER_ROW_CACHE_SIZE)
def _counter_row(raw: bytes) -> tuple[str, str, int] | None:
    """The ``(host type, hostname, count)`` of a segment line that opens
    like a counter row, checked by :func:`_row_kind`.

    Raises what :func:`_decode_row` raises for a torn line and
    :func:`_row_kind` for a malformed counter row; neither is cached.
    ``None`` means the line decodes to another kind (a repeated ``"t"``
    key, where the last one wins).
    """
    row = _decode_row(raw)
    if row.get("t") != "c":
        return None
    _row_kind(row)
    return row["ht"], row["h"], row["n"]


def _segment_row(raw: bytes) -> tuple[str, str, int] | dict | None:
    """One segment line as the readers take it.

    A counter row is its checked ``(host type, hostname, count)`` cell,
    through the memo for the lines this module writes.  Any other data
    row is its dict, checked by :func:`_row_kind`, and a blank line or
    a ``seal`` header is ``None``.  Raises :class:`ValueError` for a
    torn line and :class:`StoreError` for a malformed row.
    """
    if raw.startswith(_COUNTER_HEAD):
        cell = _counter_row(raw)
        if cell is not None:
            return cell
    row = _decode_row(raw)
    if row is None or row.get("t") == "seal":
        return None
    if _row_kind(row) == "c":
        return row["ht"], row["h"], row["n"]
    return row


def _read_segment(
    path: pathlib.Path,
    cells: dict[tuple[str, str], int],
    take: Callable[[dict], object],
    on_torn: Callable[[pathlib.Path], None] | None = None,
    heal: bool = False,
    decode: Callable[[bytes], object] = _segment_row,
) -> int:
    """Stream one segment, decoding each distinct counter line once.

    ``decode`` maps a line to a counter cell, another data row or
    ``None`` (nothing), as :func:`_segment_row` does.  A line already
    seen as a counter row is only counted; at the end each distinct
    one adds its count times its repeats to ``cells``.  Every other
    data row goes to ``take`` in file order.  Returns the number of
    data rows.

    The first line ``decode`` finds torn ends the read: nothing at or
    after it counts, repeats of earlier lines included.  ``on_torn``
    is called once for the segment, and with ``heal=True`` the file is
    truncated at that line.  A :class:`StoreError` from ``decode`` or
    ``take`` propagates at its row, before any of that.
    """
    repeats: dict[bytes, int] = {}  # counter line -> times seen
    counted: list[tuple[str, str, int]] = []  # their cells, first seen first
    rows = 0
    torn_at = None
    with open(path, "rb") as handle:
        seen = repeats.get
        for raw in handle:
            times = seen(raw)
            if times is not None:
                repeats[raw] = times + 1
                continue
            try:
                row = decode(raw)
            except ValueError:
                torn_at = handle.tell() - len(raw)
                break
            if type(row) is tuple:
                repeats[raw] = 1
                counted.append(row)
            elif row is not None:
                rows += 1
                take(row)
    total = cells.get
    for (host_type, hostname, count), times in zip(counted, repeats.values()):
        cell = host_type, hostname
        cells[cell] = total(cell, 0) + count * times
        rows += times
    if torn_at is not None:
        if on_torn is not None:
            on_torn(path)
        if heal:
            os.truncate(path, torn_at)
    return rows


def _mismatch_record(row: dict) -> MeasurementRecord:
    try:
        return record_from_dict(row["r"])
    except (KeyError, TypeError) as exc:
        raise StoreError(f"malformed 'm' row: {exc!r}") from exc


def _mismatch_signature_key(country: str, payload: dict) -> tuple:
    """``record_signature_key`` computed from a row dict, not a record."""
    return (
        country,
        payload["hostname"],
        payload["client_ip"],
        payload["campaign"],
        payload["leaf"]["fingerprint"],
        payload["leaf"]["serial_number"],
        tuple(c["fingerprint"] for c in payload["chain"]),
    )


class _Shard:
    """Write-side state for one shard directory."""

    __slots__ = (
        "path",
        "handle",
        "active_name",
        "active_bytes",
        "next_index",
        "pending_lines",
        "pending_matched",
        "counter_prefixes",
    )

    def __init__(self, path: pathlib.Path) -> None:
        self.path = path
        self.handle = None
        self.active_name: str | None = None
        self.active_bytes = 0
        self.next_index = 1
        self.pending_lines: list[bytes] = []
        self.pending_matched: Counter[tuple[str, str]] = Counter()
        self.counter_prefixes: dict[tuple[str, str], bytes] = {}

    def counter_row(self, cell: tuple[str, str], count: int) -> bytes:
        """The ``c`` row of ``count`` matched measurements for one
        (host type, hostname) cell.

        The row up to ``"n":`` is encoded once per cell by ``json.dumps``
        and cached, so escaping is exactly the general encoder's.
        """
        prefix = self.counter_prefixes.get(cell)
        if prefix is None:
            host_type, hostname = cell
            prefix = json.dumps(
                {"t": "c", "ht": host_type, "h": hostname, "n": 0},
                separators=(",", ":"),
            ).encode("utf-8")[:-2]
            self.counter_prefixes[cell] = prefix
        return prefix + b"%d}" % count


class SegmentedStore:
    """The disk format: per-country directories of JSONL segments.

    It opens a store that exists: a path that is not a directory raises
    :class:`StoreError`, so a mistyped path reads as an error, not as
    an empty store.  Writers create the directory first.
    """

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        if not self.path.is_dir():
            raise StoreError(f"report store {str(path)!r} is not a directory")
        self._shards: dict[str, _Shard] = {}
        self._country_shards: dict[str, _Shard] = {}

    # -- write side ------------------------------------------------------

    def shard(self, name: str) -> _Shard:
        shard = self._shards.get(name)
        if shard is None:
            shard = _Shard(self.path / name)
            existing = self._segment_names(shard.path)
            if existing:
                shard.next_index = max(_segment_index(n) for n in existing) + 1
            self._shards[name] = shard
        return shard

    def country_shard(self, country: str) -> _Shard:
        """The shard of a country code, its directory name quoted once."""
        shard = self._country_shards.get(country)
        if shard is None:
            shard = self._country_shards[country] = self.shard(_shard_name(country))
        return shard

    def write_blob(self, shard: _Shard, blob: bytes, segment_bytes: int) -> int:
        """Append ``blob`` to the shard's active segment.

        Returns the number of segments sealed (0 or 1): once the
        active segment crosses ``segment_bytes`` it is sealed — flushed
        and atomically renamed from ``.open.jsonl`` to ``.jsonl``.
        """
        if shard.handle is None:
            shard.path.mkdir(parents=True, exist_ok=True)
            shard.active_name = f"{_SEGMENT_PREFIX}{shard.next_index:06d}"
            shard.next_index += 1
            shard.handle = open(shard.path / (shard.active_name + _OPEN_SUFFIX), "ab")
            shard.active_bytes = 0
        shard.handle.write(blob)
        shard.active_bytes += len(blob)
        if shard.active_bytes >= segment_bytes:
            self.seal(shard)
            return 1
        return 0

    def seal(self, shard: _Shard) -> None:
        """Atomically promote the active segment to a sealed one."""
        if shard.handle is None:
            return
        shard.handle.flush()
        shard.handle.close()
        open_path = shard.path / (shard.active_name + _OPEN_SUFFIX)
        os.replace(open_path, shard.path / (shard.active_name + _SEALED_SUFFIX))
        shard.handle = None
        shard.active_name = None
        shard.active_bytes = 0

    def seal_all(self) -> int:
        sealed = 0
        for shard in self._shards.values():
            if shard.handle is not None:
                self.seal(shard)
                sealed += 1
        return sealed

    # -- read side -------------------------------------------------------

    @staticmethod
    def _segment_names(shard_path: pathlib.Path) -> list[str]:
        if not shard_path.is_dir():
            return []
        return sorted(
            name
            for name in os.listdir(shard_path)
            if name.startswith(_SEGMENT_PREFIX)
        )

    def shard_names(self) -> list[str]:
        return sorted(
            name for name in os.listdir(self.path) if (self.path / name).is_dir()
        )

    @staticmethod
    def _first_row(path: pathlib.Path) -> dict | None:
        with open(path, "rb") as handle:
            raw = handle.readline()
        try:
            return _decode_row(raw)
        except ValueError:
            return None

    def live_segments(self, name: str) -> list[pathlib.Path]:
        """One shard's segments in order, less those a compaction's
        ``seal`` header replaces, so a crash between a compaction's
        rename and its unlinks never double-counts."""
        shard_path = self.path / name
        segments = self._segment_names(shard_path)
        replaced: set[str] = set()
        for segment in segments:
            header = self._first_row(shard_path / segment)
            if header is not None and header.get("t") == "seal":
                compacts = header.get("compacts")
                if type(compacts) is not list or not all(
                    type(name) is str for name in compacts
                ):
                    raise StoreError("malformed 'seal' row")
                replaced.update(compacts)
        return [shard_path / segment for segment in segments if segment not in replaced]

    def read_shard(
        self,
        name: str,
        take: Callable[[dict], object],
        on_torn: Callable[[pathlib.Path], None] | None = None,
        heal: bool = False,
    ) -> tuple[dict[tuple[str, str], int], int]:
        """Read one shard's live segments with :func:`_read_segment`.

        Returns its summed counter cells, in the order each first
        appears, and its number of data rows; every other data row,
        checked, goes to ``take`` in (segment, line) order.  A torn
        line (no trailing newline, or not a JSON object) ends its
        segment's read; see :func:`_read_segment`.
        """
        cells: dict[tuple[str, str], int] = {}
        rows = 0
        for path in self.live_segments(name):
            rows += _read_segment(path, cells, take, on_torn, heal)
        return cells, rows

    def segment_paths(self) -> list[pathlib.Path]:
        return [
            self.path / name / segment
            for name in self.shard_names()
            for segment in self._segment_names(self.path / name)
        ]


class ReportStore(ReportSink):
    """Batched, metric-instrumented ingest into a :class:`SegmentedStore`.

    Mismatches and failures are counted in a
    :class:`~repro.measure.database.ReportTally` and buffered as
    encoded lines in their shard.  A matched append is one increment
    of a write-combining counter keyed by (country, host type,
    hostname); ``_fold()`` adds each buffered cell once to the tally
    and to its shard's per-(host type, hostname) counters.  Every
    flush folds, and so does every read of ``aggregator``, so the
    tally counts each accepted append whenever it is read, and Tables
    3/7 and the aggregate signature are there the moment ingest stops,
    without reading anything back.  A read mid-batch changes no
    segment byte: the shard counters still coalesce per cell until the
    flush writes them, one ``write()`` per shard.

    Every append is checked before anything is counted or buffered: a
    closed (or crashed) store raises :class:`StoreError`, and a
    negative count or unknown failure ``ValueError``.  The store
    flushes whenever ``batch_rows`` appends are pending, so its buffer
    never holds more than one batch.

    **Crash points.**  ``crash_hook(point)`` — when given — is invoked
    at four named points: ``"flush"`` (entry of a non-empty flush,
    before any byte is written), ``"rotate"`` (a flush that would seal
    a segment, still before any write), ``"seal"`` (in ``close()``,
    after the final flush, before the active segments are renamed) and
    ``"compact"`` (after a compacted segment is in place, before its
    replaced segments are unlinked).  A hook that raises
    :class:`InjectedCrash` kills this writer the way SIGKILL would:
    pending rows are dropped, the active segment keeps at most a torn
    half-row (``crash_tear``), and the exception propagates.  Because
    every point fires *before* the cycle's writes, disk state after a
    crash is exactly the state of the last successful flush —
    ``ops_durable`` counts the appends that state covers, which is
    what makes exact replay possible.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        registry: MetricsRegistry | None = None,
        *,
        batch_rows: int = 4096,
        segment_bytes: int = 8 * 1024 * 1024,
        crash_hook: Callable[[str], None] | None = None,
        crash_tear: bool = True,
    ) -> None:
        if batch_rows < 1:
            raise ValueError("batch_rows must be >= 1")
        pathlib.Path(path).mkdir(parents=True, exist_ok=True)
        self.segments = SegmentedStore(path)
        self._tally = ReportTally()
        # Matched appends not yet folded into the tally and the shards.
        self._matched: Counter[tuple[str, str, str]] = Counter()
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.batch_rows = batch_rows
        self.segment_bytes = segment_bytes
        self.crash_hook = crash_hook
        self.crash_tear = crash_tear
        self._pending = 0
        self._closed = False
        # Append-operation accounting for crash recovery: ops_appended
        # counts every add_* call accepted by this instance,
        # ops_durable the prefix of those covered by a completed flush.
        self.ops_appended = 0
        self.ops_durable = 0
        # How many active segments the last simulated crash left torn.
        self.crash_torn_segments = 0
        self._c_batches = self.metrics.counter("reports.batches")
        self._c_segments = self.metrics.counter("store.segments_written")
        self._c_bytes = self.metrics.counter("store.bytes_written")
        self._h_batch = self.metrics.histogram("store.batch_rows", INGEST_BATCH_BUCKETS)
        # Heal whatever a previous (possibly crashed) writer left
        # behind: torn tails truncated and counted, leftover .open
        # segments sealed so indices never collide.
        self.recover()

    @property
    def path(self) -> pathlib.Path:
        return self.segments.path

    # -- ingest ----------------------------------------------------------

    @property
    def pending(self) -> int:
        return self._pending

    @property
    def aggregator(self) -> ReportTally:
        """The tally of every append this store accepted."""
        self._fold()
        return self._tally

    def add_mismatch(self, record: MeasurementRecord) -> None:
        if self._closed:
            raise StoreError("append on a closed store")
        self._tally.add_mismatch(record)
        line = json.dumps(
            {"t": "m", "r": record_to_dict(record)}, separators=(",", ":")
        ).encode("utf-8")
        self.segments.country_shard(record.country or "??").pending_lines.append(line)
        self._appended()

    def add_matched_bulk(
        self, country: str, host_type: str, hostname: str, count: int
    ) -> None:
        # The per-report hot path, with _appended() inlined.
        if self._closed:
            raise StoreError("append on a closed store")
        if count < 0:
            raise ValueError("negative bulk count")
        if count:
            self._matched[country, host_type, hostname] += count
            self._pending += 1
            self.ops_appended += 1
            if self._pending >= self.batch_rows:
                self.flush()

    def add_failure(self, name: str, count: int = 1) -> None:
        if self._closed:
            raise StoreError("append on a closed store")
        self._tally.add_failure(name, count)
        if count:
            line = json.dumps(
                {"t": "f", "k": name, "n": count}, separators=(",", ":")
            ).encode("utf-8")
            self.segments.shard(_META_SHARD).pending_lines.append(line)
            self._appended()

    def _appended(self) -> None:
        self._pending += 1
        self.ops_appended += 1
        if self._pending >= self.batch_rows:
            self.flush()

    def _fold(self) -> None:
        """Add each write-combined matched cell once to the tally and to
        its shard's pending counters."""
        if not self._matched:
            return
        add = self._tally.add_matched_bulk
        country_shard = self.segments.country_shard
        for (country, host_type, hostname), count in self._matched.items():
            add(country, host_type, hostname, count)
            pending = country_shard(country).pending_matched
            cell = host_type, hostname
            pending[cell] = pending.get(cell, 0) + count
        self._matched = Counter()

    # -- crash simulation ------------------------------------------------

    def _crash_point(self, point: str) -> None:
        if self.crash_hook is None:
            return
        try:
            self.crash_hook(point)
        except InjectedCrash:
            self._die()
            raise

    def _die(self) -> None:
        """Simulate process death mid-cycle.

        Pending (unflushed) rows vanish, every open segment handle is
        abandoned — with ``crash_tear`` each first gets a half-written
        row appended, the artefact a real SIGKILL mid-``write`` leaves
        — and the instance closes.  Durable state on disk is exactly
        the last successful flush; ``recover()`` on the next instance
        heals the torn tails and counts them under
        ``reports.rejected{reason=torn-segment}``.  The tally keeps
        counting every append the store accepted.
        """
        self._fold()
        torn = 0
        for shard in self.segments._shards.values():
            handle = shard.handle
            if handle is not None:
                if self.crash_tear:
                    handle.write(b'{"t":"m","r":{"torn')
                    torn += 1
                try:
                    handle.flush()
                    handle.close()
                except OSError:
                    pass
                shard.handle = None
                shard.active_name = None
                shard.active_bytes = 0
            shard.pending_lines = []
            shard.pending_matched = Counter()
        self._pending = 0
        self.crash_torn_segments = torn
        self._closed = True

    # -- flushing --------------------------------------------------------

    def flush(self) -> None:
        """Write every pending row in one batched append per shard."""
        if not self._pending:
            return
        with self.metrics.span("ingest.flush"):
            self._fold()
            self._crash_point("flush")
            # Build every shard's blob before writing any of them, so
            # the rotate crash point can fire while disk state is still
            # exactly the previous flush's.
            blobs: list[tuple[_Shard, bytes]] = []
            would_seal = False
            for shard in self.segments._shards.values():
                if not shard.pending_lines and not shard.pending_matched:
                    continue
                lines = shard.pending_lines
                counter_row = shard.counter_row
                for cell, count in shard.pending_matched.items():
                    lines.append(counter_row(cell, count))
                blob = b"\n".join(lines) + b"\n"
                blobs.append((shard, blob))
                active = shard.active_bytes if shard.handle is not None else 0
                if active + len(blob) >= self.segment_bytes:
                    would_seal = True
            if would_seal:
                self._crash_point("rotate")
            for shard, blob in blobs:
                sealed = self.segments.write_blob(shard, blob, self.segment_bytes)
                if shard.handle is not None:
                    # Flushed rows must survive a process crash: drain
                    # the userspace buffer to the OS now, so at most
                    # the post-flush tail can ever be torn.
                    shard.handle.flush()
                self._c_bytes.inc(len(blob))
                if sealed:
                    self._c_segments.inc(sealed)
                shard.pending_lines = []
                shard.pending_matched = Counter()
            self._c_batches.inc()
            self._h_batch.observe(self._pending)
            self._pending = 0
            self.ops_durable = self.ops_appended

    def close(self) -> None:
        """Flush and seal every active segment."""
        if self._closed:
            return
        self.flush()
        self._crash_point("seal")
        sealed = self.segments.seal_all()
        if sealed:
            self._c_segments.inc(sealed)
        self._closed = True

    # -- maintenance -----------------------------------------------------

    def recover(self) -> dict:
        """Heal and seal ``.open`` segments left by a dead writer.

        Crash-truncation recovery: a torn tail is truncated away (only
        the half-written row is lost) and counted under
        ``reports.rejected{reason=torn-segment}``, then the segment is
        sealed so the next writer never collides with it.  Sealed
        segments are immutable once renamed, so they are not rescanned
        here; external damage to them is caught by
        :func:`scan_store`/:func:`load_store`.
        """
        torn = 0
        sealed = 0
        for name in self.segments.shard_names():
            shard_path = self.segments.path / name
            for segment in self.segments._segment_names(shard_path):
                if not segment.endswith(_OPEN_SUFFIX):
                    continue
                path = shard_path / segment
                torn_paths: list[pathlib.Path] = []
                # Only torn lines matter here; checking rows is the readers' job.
                _read_segment(
                    path,
                    {},
                    lambda _row: None,
                    on_torn=torn_paths.append,
                    heal=True,
                    decode=_decode_row,
                )
                if torn_paths:
                    torn += 1
                    self.metrics.inc("reports.rejected", reason="torn-segment")
                os.replace(
                    path, shard_path / segment.replace(_OPEN_SUFFIX, _SEALED_SUFFIX)
                )
                sealed += 1
        return {"torn_segments": torn, "sealed_open_segments": sealed}

    def compact(self) -> dict:
        """Rewrite each shard as one segment with coalesced counters.

        Matched-counter rows collapse to one per (host type, hostname),
        failure rows to one per counter; mismatch rows are preserved in
        order.  The compacted segment carries a ``seal`` header naming
        the segments it replaces, which readers skip if a crash leaves
        them behind — so compaction is crash-safe in both directions.
        """
        self.flush()
        sealed = self.segments.seal_all()
        if sealed:
            self._c_segments.inc(sealed)
        rows_before = 0
        rows_after = 0
        with self.metrics.span("ingest.compact"):
            for name in self.segments.shard_names():
                shard_path = self.segments.path / name
                segments = self.segments._segment_names(shard_path)
                if not segments:
                    continue
                if len(segments) == 1:
                    # A single sealed segment opening with a seal header
                    # is a finished compaction; rewriting it would make
                    # re-running compact() after a crash a treadmill
                    # instead of a converging recovery.
                    with open(shard_path / segments[0], "rb") as handle:
                        if handle.read(12).startswith(b'{"t":"seal"'):
                            continue
                failures: Counter[str] = Counter()
                mismatch_lines: list[bytes] = []

                def take(row: dict) -> None:
                    if row["t"] == "f":
                        failures[row["k"]] += row["n"]
                    else:
                        mismatch_lines.append(
                            json.dumps(row, separators=(",", ":")).encode("utf-8")
                        )

                counters, rows = self.segments.read_shard(name, take)
                rows_before += rows
                shard = self.segments.shard(name)
                index = shard.next_index
                shard.next_index += 1
                lines = [
                    json.dumps(
                        {"t": "seal", "compacts": sorted(segments)},
                        separators=(",", ":"),
                    ).encode("utf-8")
                ]
                lines.extend(mismatch_lines)
                for cell, count in sorted(counters.items()):
                    lines.append(shard.counter_row(cell, count))
                for key, count in sorted(failures.items()):
                    lines.append(
                        json.dumps(
                            {"t": "f", "k": key, "n": count}, separators=(",", ":")
                        ).encode("utf-8")
                    )
                rows_after += len(lines) - 1
                tmp = shard_path / f"compact-{index:06d}.tmp"
                final = shard_path / f"{_SEGMENT_PREFIX}{index:06d}{_SEALED_SUFFIX}"
                with open(tmp, "wb") as handle:
                    handle.write(b"\n".join(lines) + b"\n")
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, final)
                # Crash window the seal header exists for: the
                # compacted segment is live but the segments it
                # replaces are still on disk.  Readers skip them; a
                # re-run of compact() after reopen finishes the job.
                self._crash_point("compact")
                for segment in segments:
                    os.unlink(shard_path / segment)
                self._c_segments.inc()
        return {"rows_before": rows_before, "rows_after": rows_after}


def require_empty_store(path: str | pathlib.Path) -> None:
    """Refuse a directory that already holds segments.

    Studies and exports write a fresh store; appending to an old one
    would silently fold two datasets together.  The directory is
    created here, so a path no writer can use fails before any work.
    """
    pathlib.Path(path).mkdir(parents=True, exist_ok=True)
    if SegmentedStore(path).segment_paths():
        raise ValueError(f"report store {str(path)!r} already has segments")


def scan_store(
    path: str | pathlib.Path,
    registry: MetricsRegistry | None = None,
    heal: bool = False,
) -> ReportTally:
    """One streaming pass over every segment → a fresh tally.

    Torn segments are counted under
    ``reports.rejected{reason=torn-segment}`` (and truncated away with
    ``heal=True``); everything up to the torn tail still counts.  No
    record is materialised: each mismatch row enters as its signature
    key, and each shard's counter rows are summed per cell first.
    """
    metrics = registry if registry is not None else MetricsRegistry()
    segments = SegmentedStore(path)
    tally = ReportTally()
    torn = metrics.counter("reports.rejected", reason="torn-segment")
    with metrics.span("ingest.scan"):
        for name in segments.shard_names():
            country = _shard_country(name)

            def take(row: dict) -> None:
                if row["t"] == "m":
                    payload = row["r"]
                    tally.add_mismatch_key(
                        _mismatch_signature_key(country, payload),
                        payload["host_type"],
                    )
                else:
                    tally.add_failure(row["k"], row["n"])

            cells, _rows = segments.read_shard(
                name, take, on_torn=lambda _path: torn.inc(), heal=heal
            )
            for (host_type, hostname), count in cells.items():
                tally.add_matched_bulk(country, host_type, hostname, count)
    return tally


def iter_store_mismatches(path: str | pathlib.Path) -> Iterator[MeasurementRecord]:
    """Stream full mismatch records out of the segments (shard order),
    one segment's worth at a time."""
    segments = SegmentedStore(path)
    for name in segments.shard_names():
        for segment in segments.live_segments(name):
            records: list[MeasurementRecord] = []

            def take(row: dict) -> None:
                if row["t"] == "m":
                    records.append(_mismatch_record(row))

            _read_segment(segment, {}, take)
            yield from records


def load_store(
    path: str | pathlib.Path, registry: MetricsRegistry | None = None
) -> ReportDatabase:
    """Materialise a full :class:`ReportDatabase` from the segments.

    The record-level analysis tables (issuer organizations,
    classification, negligence) read ``database.records``; this is the
    bridge from a streamed collection run back to them.  The database
    is a tally too, so the same pass also yields :func:`scan_store`'s
    totals and signature.
    """
    metrics = registry if registry is not None else MetricsRegistry()
    segments = SegmentedStore(path)
    database = ReportDatabase()
    torn = metrics.counter("reports.rejected", reason="torn-segment")
    for name in segments.shard_names():
        country = _shard_country(name)

        def take(row: dict) -> None:
            if row["t"] == "m":
                database.add_mismatch(_mismatch_record(row))
            else:
                database.add_failure(row["k"], row["n"])

        cells, _rows = segments.read_shard(
            name, take, on_torn=lambda _path: torn.inc()
        )
        for (host_type, hostname), count in cells.items():
            database.add_matched_bulk(country, host_type, hostname, count)
    return database
