"""Unit tests for the one cache policy: ``repro.util.Memo`` and ``content_memo``."""

import pytest

from repro import util
from repro.util import Memo, content_memo, memo_counts


@pytest.fixture(autouse=True)
def forget_test_names():
    """Drop the counts of the memo names these tests make."""
    yield
    for name in [name for name in util._COUNTS if name.startswith("test.")]:
        del util._COUNTS[name]


def counts(name: str) -> tuple[int, int]:
    every = memo_counts()
    return every[f"{name}.hits"], every[f"{name}.misses"]


class TestContentMemo:
    def test_a_hit_never_calls_size(self):
        sized = []

        def size(key):
            sized.append(key)
            return len(key)

        @content_memo("test.size", 4, size=size)
        def upper(key):
            return key.upper()

        assert upper("ab") == "AB"
        assert sized == ["ab"]
        for _ in range(3):
            assert upper("ab") == "AB"
        assert sized == ["ab"]
        assert upper.cache_info() == (3, 1, 4, 1)

    def test_a_none_result_is_kept_and_hits(self):
        calls = []

        @content_memo("test.none", 4)
        def nothing(key):
            calls.append(key)

        assert nothing(b"x") is None
        assert nothing(b"x") is None
        assert calls == [b"x"]
        assert nothing.cache_info() == (1, 1, 4, 1)

    def test_a_call_that_raises_is_never_kept(self):
        calls = []

        @content_memo("test.raises", 4)
        def refuse(key):
            calls.append(key)
            raise ValueError(key)

        for _ in range(3):
            with pytest.raises(ValueError):
                refuse(b"bad")
        assert calls == [b"bad"] * 3
        assert refuse.cache_info() == (0, 3, 4, 0)

    def test_at_maxsize_the_oldest_entry_goes(self):
        @content_memo("test.oldest", 2)
        def box(key):
            return [key]

        first = box(b"a")
        box(b"b")
        assert box(b"a") is first  # a hit does not make an entry younger
        box(b"c")
        assert box.cache_info().currsize == 2
        hits = box.cache_info().hits
        box(b"b")
        box(b"c")
        assert box.cache_info().hits == hits + 2
        assert box(b"a") is not first

    def test_an_over_cap_key_is_computed_but_not_kept(self):
        @content_memo("test.cap", 1024)
        def box(key):
            return [key]

        assert box.max_key_bytes == util.MEMO_KEY_BYTES // 1024
        over = b"x" * (box.max_key_bytes + 1)
        first = box(over)
        assert box(over) == first and box(over) is not first
        assert box.cache_info() == (0, 3, 1024, 0)
        at_cap = b"x" * box.max_key_bytes
        assert box(at_cap) is box(at_cap)

    def test_cache_clear_forgets_entries_and_counts(self):
        @content_memo("test.clear", 4)
        def box(key):
            return [key]

        first = box(b"a")
        box(b"a")
        box.cache_clear()
        assert box.cache_info() == (0, 0, 4, 0)
        assert counts("test.clear") == (0, 0)
        assert box(b"a") is not first


class TestMemo:
    def test_get_counts_and_put_keeps(self):
        memo = Memo("test.memo", 2)
        assert memo.get("k") is None
        memo.put("k", 1)
        assert memo.get("k") == 1
        assert counts("test.memo") == (1, 1)

    def test_only_put_calls_size(self):
        sized = []

        def size(key):
            sized.append(key)
            return len(key)

        memo = Memo("test.size", 2, size=size)
        memo.get("k")
        memo.put("k", 1)
        memo.get("k")
        memo.get("k")
        assert sized == ["k"]

    def test_two_memos_with_one_name_add_to_one_pair(self):
        first, second = Memo("test.shared", 2), Memo("test.shared", 2)
        first.put("a", 1)
        assert first.get("a") == 1
        assert second.get("a") is None  # the entries are each memo's own
        second.put("a", 2)
        assert second.get("a") == 2
        assert counts("test.shared") == (2, 1)
        second.clear()  # forgets the entries, not the counts
        assert first == {"a": 1} and not second
        assert counts("test.shared") == (2, 1)
