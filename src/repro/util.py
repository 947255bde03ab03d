"""Small shared utilities."""

from __future__ import annotations

import functools
import hashlib


def stable_hash(*parts: object, bits: int = 64) -> int:
    """Deterministic cross-process hash of the reprs of ``parts``.

    Python's builtin ``hash`` is salted per process, which would make
    seeded runs unreproducible; everything that derives randomness from
    labels goes through this instead.
    """
    material = "\x1f".join(repr(part) for part in parts).encode("utf-8")
    digest = hashlib.blake2s(material, digest_size=(bits + 7) // 8).digest()
    return int.from_bytes(digest, "big") & ((1 << bits) - 1)


#: The most key bytes one content memo keeps: its entry bound times its
#: per-key byte cap (``MEMO_KEY_BYTES // maxsize``).
MEMO_KEY_BYTES = 16 * 1024 * 1024

_MEMOS: dict[str, object] = {}


def content_memo(name: str, maxsize: int, size=len):
    """Memoise a pure function of received bytes, bounded in entries and bytes.

    ``functools.lru_cache`` keeps the last ``maxsize`` results.  A key
    whose ``size`` is over ``MEMO_KEY_BYTES // maxsize`` is computed
    afresh and never kept, so one memo holds at most
    :data:`MEMO_KEY_BYTES` of keys however large the input.  A call
    that raises is never cached: a bad input is rejected, and counted,
    on every submission.  Every caller with equal bytes shares one
    result, so the function must return immutable values only.  Hits
    and misses are reported under ``name`` by :func:`memo_counts`.
    """
    max_key_bytes = MEMO_KEY_BYTES // maxsize

    def decorate(fn):
        cached = functools.lru_cache(maxsize=maxsize)(fn)

        @functools.wraps(fn)
        def memo(key):
            if size(key) > max_key_bytes:
                return fn(key)
            return cached(key)

        memo.cache_info = cached.cache_info
        memo.cache_clear = cached.cache_clear
        memo.max_key_bytes = max_key_bytes
        _MEMOS[name] = memo
        return memo

    return decorate


def memo_counts() -> dict[str, int]:
    """``<name>.hits`` and ``<name>.misses`` of every content memo, process-wide."""
    counts: dict[str, int] = {}
    for name, memo in sorted(_MEMOS.items()):
        info = memo.cache_info()
        counts[f"{name}.hits"] = info.hits
        counts[f"{name}.misses"] = info.misses
    return counts
