"""When the micro-batch dispatcher fires a tick.

A gate index holds every ``query_many`` call on a ``threading.Event``
and records each call's batch size, so what queued behind a running
tick is observed directly: no timers, no sleeps."""

import asyncio
import threading

import numpy as np

from repro.serve import MicroBatchDispatcher, ServeConfig

DIM = 4
#: Row i's first element is i, so each answer names its query.
VECTORS = np.arange(8 * DIM, dtype=float).reshape(8, DIM) / DIM


class GateIndex:
    """Blocks in ``query_many`` until :attr:`gate` is set; answers row
    ``v`` with ``[("row", v[0])]``."""

    kind = "table"
    generation = 0

    def __init__(self):
        self.gate = threading.Event()
        self.entered = threading.Event()
        self.batches: list[int] = []

    def query_many(self, matrix, k, excludes=None, jobs=None):
        self.batches.append(len(matrix))
        self.entered.set()
        assert self.gate.wait(timeout=30)
        return [[("row", float(row[0]))] for row in matrix]


async def settle():
    """Let every ready callback run (a zero-delay timer included)."""
    for _ in range(5):
        await asyncio.sleep(0)


def submit(dispatcher, rows):
    return asyncio.ensure_future(
        dispatcher.submit_many(VECTORS[rows], 3, [None] * len(rows)))


def test_default_fires_without_waiting():
    assert ServeConfig().max_wait_ms == 0


def test_partial_batch_queues_behind_the_running_tick():
    async def run():
        index = GateIndex()
        dispatcher = MicroBatchDispatcher(
            index, ServeConfig(max_wait_ms=0, cache_size=0))
        first = submit(dispatcher, [0])
        await asyncio.to_thread(index.entered.wait, 30)
        behind = [submit(dispatcher, [1]), submit(dispatcher, [2])]
        await settle()
        assert (dispatcher.n_inflight, dispatcher.n_pending) == (1, 2)
        index.gate.set()
        answers = await asyncio.gather(first, *behind)
        await dispatcher.drain()
        assert index.batches == [1, 2]
        assert answers == [[[("row", float(row))]] for row in (0, 1, 2)]

    asyncio.run(run())


def test_full_batch_fires_beside_the_running_tick():
    async def run():
        index = GateIndex()
        dispatcher = MicroBatchDispatcher(
            index, ServeConfig(max_batch=2, max_wait_ms=0, cache_size=0))
        first = submit(dispatcher, [0])
        await asyncio.to_thread(index.entered.wait, 30)
        full = submit(dispatcher, [1, 2])
        await settle()
        assert (dispatcher.n_inflight, dispatcher.n_pending) == (2, 0)
        index.gate.set()
        await asyncio.gather(first, full)
        await dispatcher.drain()
        assert sorted(index.batches) == [1, 2]

    asyncio.run(run())


def test_mixed_request_keeps_row_order_and_stores_its_miss():
    async def run():
        index = GateIndex()
        index.gate.set()
        dispatcher = MicroBatchDispatcher(index, ServeConfig(max_wait_ms=0))
        await submit(dispatcher, [0, 2])
        assert index.batches == [2]
        answers = await submit(dispatcher, [0, 1, 2])
        assert answers == [[("row", float(row))] for row in (0, 1, 2)]
        assert index.batches == [2, 1]      # only row 1 reached a tick
        assert await submit(dispatcher, [1]) == [[("row", 1.0)]]
        assert index.batches == [2, 1]      # the miss was stored
        counters = dispatcher.counters
        assert (counters.exact_hits, counters.misses) == (3, 3)
        await dispatcher.drain()

    asyncio.run(run())
