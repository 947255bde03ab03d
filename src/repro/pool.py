"""One ordered process map: the package's only worker pool.

Fast-study sub-shards and the catalog fan-outs go through
:func:`ordered_map`.  Results come back in item order, whatever order
the items were submitted or finished in, so pooled output equals the
callers' inline ``workers=1`` loops byte for byte.  The pool module is
imported on first use: runs that never pool never load
:mod:`multiprocessing`.
"""

from __future__ import annotations

from typing import Callable, Sequence

# What ``build(*args)`` returned in this worker process.
_WORKER = None


def _init_worker(build: Callable, args: tuple) -> None:
    global _WORKER
    _WORKER = build(*args)


def _run_task(task: Callable, item):
    return task(_WORKER, item)


def ordered_map(
    task: Callable,
    items: Sequence,
    workers: int,
    build: Callable,
    args: tuple = (),
    order: Sequence[int] | None = None,
) -> list:
    """``[task(worker, item) for item in items]`` over ``workers`` processes.

    Every worker process runs ``build(*args)`` once and passes the
    result to ``task`` as ``worker`` for each item it pulls.  Items are
    submitted in ``order`` (indices into ``items``; default item order),
    so callers can queue the largest first.  ``task``, ``build``,
    ``args`` and the items must pickle: module-level functions and
    plain data.
    """
    from concurrent.futures import ProcessPoolExecutor

    if order is None:
        order = range(len(items))
    with ProcessPoolExecutor(
        max_workers=min(workers, len(items)),
        initializer=_init_worker,
        initargs=(build, args),
    ) as pool:
        futures = {index: pool.submit(_run_task, task, items[index]) for index in order}
        return [futures[index].result() for index in range(len(items))]
