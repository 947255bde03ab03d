"""Small shared utilities."""

from __future__ import annotations

import functools
import hashlib
from collections import namedtuple


def stable_hash(*parts: object, bits: int = 64) -> int:
    """Deterministic cross-process hash of the reprs of ``parts``.

    Python's builtin ``hash`` is salted per process, which would make
    seeded runs unreproducible; everything that derives randomness from
    labels goes through this instead.
    """
    material = "\x1f".join(repr(part) for part in parts).encode("utf-8")
    digest = hashlib.blake2s(material, digest_size=(bits + 7) // 8).digest()
    return int.from_bytes(digest, "big") & ((1 << bits) - 1)


#: The most key bytes one memo keeps: its entry bound times its per-key
#: byte cap (``MEMO_KEY_BYTES // maxsize``).
MEMO_KEY_BYTES = 16 * 1024 * 1024

# Each memo name's [hits, misses], shared by every Memo of that name.
_COUNTS: dict[str, list[int]] = {}

CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class Memo(dict):
    """A bounded, counted dict: every memo in the program is one.

    It holds at most ``maxsize`` entries and drops the oldest first.  A
    key whose ``size`` is over ``MEMO_KEY_BYTES // maxsize`` is never
    kept, so one memo holds at most :data:`MEMO_KEY_BYTES` of keys
    however large its input; ``size`` is called only on a value about to
    be kept, never on a hit.  Every Memo with the same ``name`` adds its
    lookups to one (hits, misses) pair, which :func:`memo_counts`
    reports; :meth:`clear` forgets the entries, not the counts.
    """

    __slots__ = ("maxsize", "max_key_bytes", "size", "counts")

    def __init__(self, name: str, maxsize: int, size=len) -> None:
        super().__init__()
        self.maxsize = maxsize
        self.max_key_bytes = MEMO_KEY_BYTES // maxsize
        self.size = size
        self.counts = _COUNTS.setdefault(name, [0, 0])

    def get(self, key):
        """The value kept under ``key`` (a hit), or None (a miss)."""
        try:
            value = self[key]
        except KeyError:
            self.counts[1] += 1
            return None
        self.counts[0] += 1
        return value

    def put(self, key, value) -> None:
        """Keep ``value`` under ``key`` unless the key is over the cap."""
        if self.size(key) > self.max_key_bytes:
            return
        if len(self) >= self.maxsize:
            del self[next(iter(self))]
        self[key] = value


def content_memo(name: str, maxsize: int, size=len):
    """Memoise a pure function of one key in a process-wide :class:`Memo`.

    A call that raises is never kept: a bad input is rejected, and
    counted, on every submission.  A ``None`` result is kept like any
    other.  Every caller with an equal key shares one result, so the
    function must return immutable values only.  The wrapper keeps
    ``functools.lru_cache``'s ``cache_info()`` and ``cache_clear()``
    (which forgets the counts too), and ``max_key_bytes``.
    """

    def decorate(fn):
        entries = Memo(name, maxsize, size)
        counts = entries.counts

        @functools.wraps(fn)
        def memo(key):
            try:
                value = entries[key]
            except KeyError:
                pass
            else:
                counts[0] += 1
                return value
            counts[1] += 1
            value = fn(key)
            entries.put(key, value)
            return value

        def cache_info() -> CacheInfo:
            return CacheInfo(counts[0], counts[1], maxsize, len(entries))

        def cache_clear() -> None:
            entries.clear()
            counts[:] = 0, 0

        memo.cache_info = cache_info
        memo.cache_clear = cache_clear
        memo.max_key_bytes = entries.max_key_bytes
        return memo

    return decorate


def memo_counts() -> dict[str, int]:
    """``<name>.hits`` and ``<name>.misses`` of every memo name, process-wide."""
    counts: dict[str, int] = {}
    for name, (hits, misses) in sorted(_COUNTS.items()):
        counts[f"{name}.hits"] = hits
        counts[f"{name}.misses"] = misses
    return counts
