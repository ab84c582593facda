"""The package's one process fan-out, shared by ``engine.run_ensemble`` and
the CSV writer of ``cli``.  It lives apart from both so that a command
loads only what it runs: a theory command writes its tables through it
without loading the simulator."""

from __future__ import annotations

import os
from collections import deque
from typing import Callable, Iterable, Iterator, Optional


def _pool_size(tasks: int, workers: Optional[int] = None) -> int:
    """Processes for ``tasks`` independent tasks: ``workers`` (None or 0:
    one per CPU), never more than the CPUs or the tasks."""
    cpus = os.cpu_count() or 1
    return min(workers or cpus, cpus, tasks)


def _in_order(fn: Callable, items: Iterable, size: int) -> Iterator:
    """``fn`` over ``items``, results in item order, in ``size`` processes.

    With one process (``size`` <= 1) this works in the caller's process.
    Otherwise one process pool runs ``fn``, with at most two items per
    process submitted and not yet yielded, so a long ``items`` never sits
    in the pool's queue at once, and an error stops further submissions.
    The pool shuts down on every exit, cancelling what has not started,
    so no worker outlives the iteration: not on the last result, an error
    or the caller closing the iterator early.
    """
    if size <= 1:
        yield from map(fn, items)
        return
    # imported here: every command pays for the import, few start a pool
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=size)
    pending = deque()
    try:
        for item in items:
            if len(pending) == 2 * size:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, item))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
