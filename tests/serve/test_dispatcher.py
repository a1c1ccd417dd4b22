"""When the micro-batch dispatcher fires a tick, and on which thread.

A gate index holds every ``query_many`` call on a ``threading.Event``
and records each call's batch size, so what queued behind a running
tick is observed directly: no timers, no sleeps.  The gate index is not
a local layout, so its ticks take the executor path a remote index
takes; a real ``VectorIndex`` ranks on the loop thread."""

import asyncio
import threading
import time

import numpy as np
from testutil import http_request, make_corpus, post_query, save_layout

from repro.cluster import RemoteShardedIndex, ShardServerThread, Topology
from repro.cluster.shard_server import local_shards
from repro.index import VectorIndex, open_index
from repro.serve import MicroBatchDispatcher, ServeConfig, ServerThread

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


def test_local_tick_ranks_on_the_loop_thread():
    keys, vectors = make_corpus(n=60, dim=DIM)
    index = VectorIndex(dim=DIM)
    index.add_batch(keys, vectors)
    ranking = index.query_many
    threads = []

    def recorded(*args, **kwargs):
        threads.append(threading.get_ident())
        return ranking(*args, **kwargs)

    index.query_many = recorded

    async def run():
        dispatcher = MicroBatchDispatcher(index, ServeConfig(cache_size=0))
        answers = await dispatcher.submit_many(vectors[:3], 5, [None] * 3)
        await dispatcher.drain()
        return threading.get_ident(), answers

    loop_thread, answers = asyncio.run(run())
    assert threads == [loop_thread]
    assert answers == ranking(vectors[:3], k=5)


def test_remote_tick_leaves_the_loop_answering(tmp_path):
    """A front server over the cluster coordinator ranks in the
    executor: while a shard holds the scatter, ``/stats`` still
    answers."""
    keys, vectors = make_corpus(n=60, dim=DIM)
    index = open_index(save_layout(tmp_path, keys, vectors, 1))
    shard = local_shards(index)[0]
    scoring = shard.query_partial_many
    gate, entered = threading.Event(), threading.Event()

    def held(*args, **kwargs):
        entered.set()
        assert gate.wait(timeout=30)
        return scoring(*args, **kwargs)

    shard.query_partial_many = held
    outcome = {}
    with ShardServerThread(index) as member:
        remote = RemoteShardedIndex.connect(
            Topology.from_addresses([("127.0.0.1", member.port)]))
        try:
            with ServerThread(remote) as front:
                client = threading.Thread(target=lambda: outcome.update(
                    query=post_query(front.port,
                                     {"vector": vectors[0].tolist(),
                                      "k": 3})))
                client.start()
                try:
                    assert entered.wait(timeout=10)
                    started = time.monotonic()
                    status, _headers, _data = http_request(front.port, "GET",
                                                           "/stats", timeout=2)
                    outcome["stats_s"] = time.monotonic() - started
                finally:
                    gate.set()
                    client.join(timeout=30)
        finally:
            remote.close()
    assert status == 200 and outcome["stats_s"] < 2
    assert outcome["query"][0] == 200
