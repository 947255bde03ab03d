"""Unit tests for the one ordered process map."""

import os

from repro.pool import ordered_map


def _build() -> bytes:
    # A fresh random token per build: unlike id(), it cannot repeat
    # after an earlier build has been freed.
    return os.urandom(8)


def _task(worker: bytes, item: int) -> tuple[int, int, bytes]:
    return item, os.getpid(), worker


class TestOrderedMap:
    ITEMS = [10, 11, 12, 13, 14, 15]

    def test_results_in_item_order_and_one_build_per_process(self):
        results = ordered_map(
            _task, self.ITEMS, 2, _build, order=list(reversed(range(6)))
        )
        # Submitted last item first, returned in item order.
        assert [item for item, _, _ in results] == self.ITEMS
        builds: dict[int, set[bytes]] = {}
        for _, pid, worker in results:
            builds.setdefault(pid, set()).add(worker)
        assert os.getpid() not in builds
        assert all(len(tokens) == 1 for tokens in builds.values()), builds
