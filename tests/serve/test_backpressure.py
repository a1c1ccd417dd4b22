"""Backpressure: a bounded dispatcher queue sheds load as 429 +
``Retry-After`` instead of growing toward OOM.

The deterministic lever: the backlog check is all-or-nothing on a
request's full row count *before* anything enqueues, so a single batch
request carrying more rows than ``max_backlog`` always rejects — no
racing concurrent clients needed to pin the contract.  A concurrency
test then drives real overload through sockets and checks the server
keeps serving afterwards."""

import asyncio
import json
import threading

import pytest
from serveutil import (
    http_request,
    http_request_full,
    make_corpus,
    post_query,
    save_layout,
)

from repro.index import open_index
from repro.serve import ServeConfig, ServerThread
from repro.serve.dispatcher import BacklogFull, MicroBatchDispatcher

DIM = 24


@pytest.fixture(scope="module")
def layout(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("backpressure")
    keys, vectors = make_corpus(n=90, dim=DIM, seed=17)
    return save_layout(tmp, keys, vectors, 2, seed=17), vectors


class TestDispatcherBacklog:
    def test_overflow_raises_backlog_full(self, layout):
        path, vectors = layout
        index = open_index(path)

        async def run():
            config = ServeConfig(max_batch=64, max_wait_ms=1000.0,
                                 max_backlog=2)
            dispatcher = MicroBatchDispatcher(index, config)
            with pytest.raises(BacklogFull) as excinfo:
                await dispatcher.submit_many(
                    vectors[:3], 5, [None] * 3)
            assert excinfo.value.http_status == 429
            assert excinfo.value.retry_after == 1
            assert dispatcher.rejected_total == 3
            # All-or-nothing: nothing from the rejected request joined
            # the queue.
            assert dispatcher.n_pending == 0
            # The valve only sheds the overflowing request; a request
            # that fits is served (flushed by hand — max_wait_ms is
            # 1000 so the timer never fires inside the test).
            task = asyncio.ensure_future(
                dispatcher.submit_many(vectors[:2], 5, [None] * 2))
            await asyncio.sleep(0)
            dispatcher.flush_now()
            results = await task
            assert len(results) == 2
            await dispatcher.drain()

        asyncio.run(run())

    def test_unbounded_by_default(self, layout):
        path, vectors = layout
        index = open_index(path)

        async def run():
            dispatcher = MicroBatchDispatcher(
                index, ServeConfig(max_batch=256, max_wait_ms=0.0))
            results = await dispatcher.submit_many(
                vectors[:60], 3, [None] * 60)
            assert len(results) == 60
            assert dispatcher.rejected_total == 0
            await dispatcher.drain()

        asyncio.run(run())


class TestServedBackpressure:
    @pytest.fixture(scope="class")
    def server(self, layout):
        path, _vectors = layout
        # max_wait_ms high + max_batch high: enqueued work sits in the
        # pending queue, so the backlog bound is the only valve.
        config = ServeConfig(max_batch=64, max_wait_ms=50.0, max_backlog=4)
        with ServerThread(open_index(path, mmap=True),
                          config=config) as handle:
            yield handle

    def test_oversized_request_is_429_with_retry_after(self, layout,
                                                       server):
        _path, vectors = layout
        body = json.dumps({"vectors": vectors[:5].tolist(),
                           "k": 3}).encode()
        status, headers, data = http_request_full(server.port, "POST",
                                                  "/query", body)
        assert status == 429
        assert headers.get("Retry-After") == "1"
        payload = json.loads(data)
        assert "backlog" in payload["error"]

    def test_within_bound_request_succeeds(self, layout, server):
        _path, vectors = layout
        local = open_index(_path, mmap=True)
        status, payload = post_query(
            server.port, {"vectors": vectors[:2].tolist(), "k": 3})
        assert status == 200
        offline = local.query_many(vectors[:2], k=3)
        for entry, hits in zip(payload["results"], offline):
            assert [(h["key"], h["score"]) for h in entry["hits"]] == \
                   [(h.key, h.score) for h in hits]

    def test_stats_counts_rejections(self, layout, server):
        _path, vectors = layout
        body = json.dumps({"vectors": vectors[:6].tolist(),
                           "k": 3}).encode()
        http_request(server.port, "POST", "/query", body)
        status, _headers, data = http_request_full(server.port, "GET",
                                                   "/stats")
        assert status == 200
        stats = json.loads(data)
        assert stats["dispatcher"]["max_backlog"] == 4
        assert stats["dispatcher"]["rejected"] >= 5
        assert stats["responses_by_status"].get("429", 0) >= 1

    def test_server_keeps_serving_after_shedding(self, layout, server):
        """Concurrent overload, then normal service: 429s during the
        storm never wedge the dispatcher."""
        _path, vectors = layout
        statuses = []
        lock = threading.Lock()

        def fire(rows):
            body = json.dumps({"vectors": rows.tolist(), "k": 3}).encode()
            status, _h, _d = http_request_full(server.port, "POST",
                                               "/query", body)
            with lock:
                statuses.append(status)

        threads = [threading.Thread(target=fire, args=(vectors[i:i + 3],))
                   for i in range(0, 24, 3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert set(statuses) <= {200, 429}
        status, payload = post_query(
            server.port, {"vector": vectors[0].tolist(), "k": 3})
        assert status == 200 and payload["hits"]


def test_http_request_exposes_headers(layout):
    """serveutil.http_request returns only (status, body); the header
    variant lives here so the Retry-After assertions read naturally."""
    # Covered implicitly above; this test pins the helper contract.
    path, vectors = layout
    with ServerThread(open_index(path, mmap=True)) as handle:
        status, headers, _data = http_request_full(handle.port, "GET",
                                                    "/healthz")
        assert status == 200
        assert "Content-Type" in headers or "content-type" in headers
