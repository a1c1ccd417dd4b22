"""End-to-end server tests: real sockets, served ≡ offline rankings.

Each test boots a :class:`~repro.serve.ServerThread` on an ephemeral
port and talks to it over plain ``http.client``.  The load-bearing
property is pinned throughout: whatever the server returns for a query
is exactly what ``open_index(...).query_many`` returns offline — same
keys, bit-equal scores, same tie order — across layouts (1/2/5 shards),
mmap and eager opens, and single and batch request shapes.

The transport contract — graceful drain, and the error answers that
belong to the connection loop rather than to a route — is written once
(:class:`DrainContract`, :class:`TransportErrorContract`) and bound to
both servers that run on :mod:`repro.serve.transport`: the retrieval
server through ``/query`` and the cluster's shard server through
``/partial_query``.  The bindings are subclasses rather than
``parametrize`` ids so the retrieval server's cases keep the test names
they have always had.
"""

import asyncio
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from serveutil import (
    http_request,
    make_corpus,
    offline_ranking,
    post_query,
    read_until_closed,
    save_layout,
    served_ranking,
)

from repro.cluster import ShardServerThread
from repro.cluster.shard_server import local_shards
from repro.index import FORMAT_VERSION, open_index
from repro.serve import ServeConfig, ServerThread

DIM = 24


class FrontTransport:
    """The retrieval server as the transport contract's input."""

    route = "/query"

    @staticmethod
    def boot(index, **kwargs):
        return ServerThread(index, config=ServeConfig(max_wait_ms=1.0),
                            **kwargs)

    @staticmethod
    def boot_holding(index):
        """A started server that holds a query in flight — parked in a
        30-second micro-batch window only a drain's flush cuts short —
        and a wait for one to be held."""
        config = ServeConfig(max_wait_ms=30_000.0, max_batch=1024)
        handle = ServerThread(index, config=config).start()

        def wait_until_held():
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                _status, data = http_request(handle.port, "GET", "/stats")
                if json.loads(data)["dispatcher"]["pending"] >= 1:
                    return
                time.sleep(0.01)
            pytest.fail("query never reached the dispatcher")

        return handle, wait_until_held

    @staticmethod
    def want(path, vector, k):
        """What the route must answer for ``vector``: the offline
        ranking."""
        hits = open_index(path).query_many(vector[None, :], k=k)[0]
        return offline_ranking(hits)

    @staticmethod
    def got(payload):
        return served_ranking(payload["hits"])


class ShardTransport:
    """The cluster's shard server as the transport contract's input."""

    route = "/partial_query"

    @staticmethod
    def boot(index, **kwargs):
        return ShardServerThread(index, **kwargs)

    @staticmethod
    def boot_holding(index):
        """A started server that holds a query in flight — its first
        shard scores slowly — and a wait for one to be held."""
        entered = threading.Event()
        shard = local_shards(index)[0]
        scoring = shard.query_partial_many

        def slow(*args, **kwargs):
            entered.set()
            time.sleep(0.5)
            return scoring(*args, **kwargs)

        shard.query_partial_many = slow

        def wait_until_held():
            if not entered.wait(timeout=10):
                pytest.fail("query never reached the shard")

        return ShardServerThread(index).start(), wait_until_held

    @staticmethod
    def want(path, vector, k):
        """What the route must answer for ``vector``: per local shard,
        the candidate count and the offline partial ranking."""
        return [[(count, offline_ranking(hits)) for count, hits
                 in shard.query_partial_many(vector[None, :], k,
                                             excludes=[None])]
                for shard in local_shards(open_index(path))]

    @staticmethod
    def got(payload):
        return [[(query["count"], served_ranking(query["hits"]))
                 for query in shard["queries"]]
                for shard in payload["shards"]]


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(n=240, dim=DIM, seed=7)


@pytest.fixture(scope="module")
def queries(corpus):
    _keys, vectors = corpus
    rng = np.random.default_rng(11)
    fresh = rng.standard_normal((6, DIM))
    # Corpus rows as queries hit the duplicate-tie path; fresh
    # gaussians hit the generic path.
    return np.vstack([vectors[:6], fresh])


class TestServedEqualsOffline:
    @pytest.mark.parametrize("n_shards", [1, 2, 5])
    @pytest.mark.parametrize("mmap", [False, True])
    def test_batch_request_matches_query_many(self, tmp_path, corpus,
                                              queries, n_shards, mmap):
        keys, vectors = corpus
        path = save_layout(tmp_path, keys, vectors, n_shards)
        offline = open_index(path)
        want = [offline_ranking(hits)
                for hits in offline.query_many(queries, k=5)]
        with ServerThread(open_index(path, mmap=mmap),
                          config=ServeConfig(max_wait_ms=1.0)) as handle:
            status, payload = post_query(
                handle.port, {"vectors": queries.tolist(), "k": 5})
        assert status == 200
        got = [served_ranking(result["hits"])
               for result in payload["results"]]
        assert got == want

    @pytest.mark.parametrize("n_shards", [1, 2, 5])
    def test_single_requests_match_query_many(self, tmp_path, corpus,
                                              queries, n_shards):
        keys, vectors = corpus
        path = save_layout(tmp_path, keys, vectors, n_shards)
        offline = open_index(path)
        want = [offline_ranking(hits)
                for hits in offline.query_many(queries, k=4)]
        with ServerThread(open_index(path, mmap=True),
                          config=ServeConfig(max_wait_ms=1.0)) as handle:
            for row, expected in zip(queries, want):
                status, payload = post_query(
                    handle.port, {"vector": row.tolist(), "k": 4})
                assert status == 200
                assert served_ranking(payload["hits"]) == expected

    def test_exclude_is_honoured(self, tmp_path, corpus):
        keys, vectors = corpus
        path = save_layout(tmp_path, keys, vectors, 2)
        offline = open_index(path)
        want = offline_ranking(
            offline.query_many(vectors[:1], k=5, excludes=[keys[0]])[0])
        with ServerThread(open_index(path, mmap=True),
                          config=ServeConfig(max_wait_ms=1.0)) as handle:
            status, payload = post_query(
                handle.port, {"vector": vectors[0].tolist(), "k": 5,
                              "exclude": keys[0]})
        assert status == 200
        got = served_ranking(payload["hits"])
        assert got == want
        assert keys[0] not in [key for key, _score in got]

    def test_mixed_k_requests_stay_isolated(self, tmp_path, corpus, queries):
        """Different k values in flight together must each match their
        own serial result (the dispatcher groups ticks by k)."""
        keys, vectors = corpus
        path = save_layout(tmp_path, keys, vectors, 2)
        offline = open_index(path)
        ks = [1, 3, 7, 300]   # 300 > corpus candidates: brute-force path
        want = {k: [offline_ranking(hits)
                    for hits in offline.query_many(queries, k=k)]
                for k in ks}
        results: dict[tuple[int, int], list] = {}
        errors: list[Exception] = []

        def client(k, q):
            try:
                status, payload = post_query(
                    handle.port, {"vector": queries[q].tolist(), "k": k})
                assert status == 200
                results[(k, q)] = served_ranking(payload["hits"])
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        config = ServeConfig(max_wait_ms=20.0, max_batch=64)
        with ServerThread(open_index(path, mmap=True),
                          config=config) as handle:
            threads = [threading.Thread(target=client, args=(k, q))
                       for k in ks for q in range(len(queries))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        assert not errors
        for (k, q), got in results.items():
            assert got == want[k][q], f"k={k} query {q} diverged"
        assert len(results) == len(ks) * len(queries)


class TransportErrorContract:
    """Error answers that belong to the connection loop, whatever the
    routes: an oversized body, a handler bug, and the loop staying
    alive through all of it."""

    @pytest.fixture(scope="class")
    def layout(self, tmp_path_factory):
        keys, vectors = make_corpus(n=60, dim=DIM, seed=3)
        return save_layout(tmp_path_factory.mktemp("err"), keys, vectors,
                           2), vectors

    @pytest.fixture(scope="class")
    def server(self, layout):
        path, _vectors = layout
        with self.boot(open_index(path, mmap=True),
                       max_body=4096) as handle:
            yield handle

    def test_oversized_body_is_413(self, server):
        blob = json.dumps({"vectors": [[0.0] * DIM] * 500}).encode()
        assert len(blob) > 4096
        status, data = http_request(server.port, "POST", self.route, blob)
        assert status == 413
        assert "exceeds" in json.loads(data)["error"]

    def test_handler_exception_is_exactly_one_500(self, server,
                                                  monkeypatch):
        """A bug in a route is one 500 on that connection — which the
        server then hangs up — and the listener answers the next one."""
        async def broken(request):
            raise RuntimeError("boom")

        monkeypatch.setattr(server.server, "_respond", broken)
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=30) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            wire = read_until_closed(sock)
        assert wire.startswith(b"HTTP/1.1 500 ")
        assert wire.count(b"HTTP/1.1 ") == 1
        assert b"boom" in wire
        monkeypatch.undo()
        assert http_request(server.port, "GET", "/healthz")[0] == 200

    def test_server_survives_error_barrage(self, server, layout):
        """After every error above, a good request still answers —
        errors never wedge the connection loop."""
        path, vectors = layout
        blob = json.dumps({"vectors": [[0.0] * DIM] * 500}).encode()
        assert http_request(server.port, "POST", self.route, blob)[0] == 413
        assert http_request(server.port, "POST", self.route, b"{nope")[0] \
            == 400
        assert http_request(server.port, "GET", "/nope")[0] == 404
        status, payload = post_query(server.port,
                                     {"vector": vectors[0].tolist(), "k": 2},
                                     route=self.route)
        assert status == 200
        assert self.got(payload) == self.want(path, vectors[0], 2)


class TestErrorContract(FrontTransport, TransportErrorContract):
    def test_malformed_json_is_400(self, server):
        status, data = http_request(server.port, "POST", "/query", b"{nope")
        assert status == 400
        assert "JSON" in json.loads(data)["error"]

    def test_wrong_dim_is_400(self, server):
        status, payload = post_query(server.port, {"vector": [1.0, 2.0]})
        assert status == 400
        assert "dims" in payload["error"]

    def test_unknown_route_is_404(self, server):
        status, _data = http_request(server.port, "GET", "/nope")
        assert status == 404

    def test_wrong_method_is_405(self, server):
        assert http_request(server.port, "GET", "/query")[0] == 405
        assert http_request(server.port, "POST", "/healthz",
                            b"{}")[0] == 405
        assert http_request(server.port, "POST", "/stats", b"{}")[0] == 405


class TestShardTransportErrors(ShardTransport, TransportErrorContract):
    pass


class TestHealthAndStats:
    def test_healthz_reports_index_identity(self, tmp_path):
        keys, vectors = make_corpus(n=90, dim=DIM, seed=5)
        path = save_layout(tmp_path, keys, vectors, 5)
        with ServerThread(open_index(path, mmap=True)) as handle:
            status, data = http_request(handle.port, "GET", "/healthz")
        payload = json.loads(data)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["kind"] == "vector"
        assert payload["dim"] == DIM
        assert payload["entries"] == 90
        assert payload["shards"] == 5
        # Deployment identity: which checkpoint produced the vectors
        # and which saved-format version the layout carries.
        assert payload["model_id"] is None
        assert payload["format_version"] == FORMAT_VERSION
        assert payload["indexes"] == 1

    def test_healthz_reports_model_id(self, tmp_path):
        keys, vectors = make_corpus(n=30, dim=DIM, seed=6)
        index = open_index(save_layout(tmp_path, keys, vectors, 1))
        index.model_id = "ckpt-abc123"
        with ServerThread(index) as handle:
            _status, data = http_request(handle.port, "GET", "/healthz")
        assert json.loads(data)["model_id"] == "ckpt-abc123"

    def test_stats_counts_requests_and_queries(self, tmp_path, corpus,
                                               queries):
        keys, vectors = corpus
        path = save_layout(tmp_path, keys, vectors, 1)
        with ServerThread(open_index(path, mmap=True),
                          config=ServeConfig(max_wait_ms=1.0)) as handle:
            post_query(handle.port, {"vectors": queries.tolist(), "k": 3})
            post_query(handle.port, {"vector": queries[0].tolist()})
            http_request(handle.port, "POST", "/query", b"{bad")
            status, data = http_request(handle.port, "GET", "/stats")
        snapshot = json.loads(data)
        assert status == 200
        assert snapshot["queries_total"] == len(queries) + 1
        assert snapshot["requests_total"] >= 3
        assert snapshot["responses_by_status"]["200"] >= 2
        assert snapshot["responses_by_status"]["400"] == 1
        assert snapshot["batch"]["dispatched"] >= 1
        assert snapshot["batch"]["max_size"] <= 32
        assert snapshot["dispatcher"]["max_batch"] == 32

    def test_max_batch_1_makes_every_query_its_own_tick(self, tmp_path,
                                                        corpus, queries):
        """max_batch=1 is per-request dispatch: however the queries
        arrive — one batch request or concurrent singles — and however
        long the window, each is its own tick (mean batch 1.0)."""
        keys, vectors = corpus
        path = save_layout(tmp_path, keys, vectors, 2)

        def single(q):
            assert post_query(handle.port, {"vector": queries[q].tolist(),
                                            "k": 3})[0] == 200

        config = ServeConfig(max_batch=1, max_wait_ms=50.0, cache_size=0)
        with ServerThread(open_index(path, mmap=True),
                          config=config) as handle:
            status, _payload = post_query(
                handle.port, {"vectors": queries.tolist(), "k": 3})
            assert status == 200
            threads = [threading.Thread(target=single, args=(q,))
                       for q in range(len(queries))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            _status, data = http_request(handle.port, "GET", "/stats")
        batch = json.loads(data)["batch"]
        assert batch["dispatched"] == 2 * len(queries)
        assert batch["mean_size"] == 1.0
        assert batch["max_size"] == 1


class DrainContract:
    """What a drain guarantees, on any server the transport runs."""

    def test_inflight_request_completes_on_shutdown(self, tmp_path, corpus):
        """A request held in flight must be answered — correctly — when
        the server shuts down under it."""
        keys, vectors = corpus
        path = save_layout(tmp_path, keys, vectors, 2)
        want = self.want(path, vectors[0], 3)
        handle, wait_until_held = self.boot_holding(
            open_index(path, mmap=True))
        outcome: dict = {}

        def client():
            outcome["response"] = post_query(
                handle.port, {"vector": vectors[0].tolist(), "k": 3},
                route=self.route)

        thread = threading.Thread(target=client)
        thread.start()
        try:
            wait_until_held()
        finally:
            started = time.monotonic()
            handle.stop()
        drained_in = time.monotonic() - started
        thread.join(timeout=10)
        status, payload = outcome["response"]
        assert status == 200
        assert self.got(payload) == want
        # The drain hurried the answer out rather than sitting out the
        # retrieval server's 30-second batch window.
        assert drained_in < 10

    def test_mid_body_request_completes_on_shutdown(self, tmp_path, corpus):
        """A client that has sent its request line but is still
        streaming the body when the drain starts must not have its
        upload severed: the drain waits, the request is answered 200
        with the correct ranking."""
        keys, vectors = corpus
        path = save_layout(tmp_path, keys, vectors, 2)
        want = self.want(path, vectors[0], 3)
        handle = self.boot(open_index(path, mmap=True)).start()
        body = json.dumps({"vector": vectors[0].tolist(), "k": 3}).encode()
        head = (f"POST {self.route} HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode()
        sock = socket.create_connection(("127.0.0.1", handle.port),
                                        timeout=30)
        stopper = None
        try:
            sock.sendall(head + body[:10])
            time.sleep(0.3)   # server has the request line, not the body
            stopper = threading.Thread(target=handle.stop)
            stopper.start()
            time.sleep(0.3)   # drain is now waiting on this connection
            sock.sendall(body[10:])
            response = read_until_closed(sock)
        finally:
            sock.close()
            if stopper is not None:
                stopper.join(timeout=30)
            handle.stop()
        status_line, _, rest = response.partition(b"\r\n")
        assert b" 200 " in status_line, response[:200]
        payload = json.loads(rest.partition(b"\r\n\r\n")[2])
        assert self.got(payload) == want

    def test_keepalive_request_after_drain_began_is_503(self, tmp_path,
                                                        corpus):
        """A request arriving on a kept-alive connection once the drain
        has begun is refused with a retry hint, not served behind the
        drain's back.  On this Python nothing awaits between "draining"
        and "idle connections severed", so the test holds that window
        open where ``asyncio.Server.wait_closed`` would."""
        keys, vectors = corpus
        path = save_layout(tmp_path, keys, vectors, 1)
        handle = self.boot(open_index(path)).start()
        released = threading.Event()

        async def held_open():
            while not released.is_set():
                await asyncio.sleep(0.01)

        conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                          timeout=30)
        stopper = threading.Thread(target=handle.stop)
        try:
            conn.request("GET", "/healthz")
            early = conn.getresponse()
            early.read()
            assert early.status == 200
            handle.server._server.wait_closed = held_open
            stopper.start()
            deadline = time.monotonic() + 10
            while not handle.server._draining:
                assert time.monotonic() < deadline, "drain never began"
                time.sleep(0.01)
            conn.request("GET", "/healthz")
            late = conn.getresponse()
            late.read()
        finally:
            released.set()
            if stopper.is_alive():
                stopper.join(timeout=30)
            conn.close()
            handle.stop()
        assert late.status == 503
        assert late.getheader("Retry-After") == "1"
        assert late.getheader("Connection") == "close"

    def test_stop_is_idempotent(self, tmp_path, corpus):
        keys, vectors = corpus
        path = save_layout(tmp_path, keys, vectors, 1)
        handle = self.boot(open_index(path)).start()
        handle.stop()
        handle.stop()


class TestGracefulDrain(FrontTransport, DrainContract):
    pass


class TestShardGracefulDrain(ShardTransport, DrainContract):
    pass


class TestServeCli:
    def test_cli_boots_serves_and_drains_on_sigterm(self, tmp_path, corpus,
                                                    queries):
        """The `repro.cli serve` entry end-to-end: boots from a saved
        path, prints the bound port, answers /healthz and /query, logs
        to --log-file, and exits 0 on SIGTERM after draining."""
        keys, vectors = corpus
        path = save_layout(tmp_path, keys, vectors, 2)
        offline = open_index(path)
        want = [offline_ranking(hits)
                for hits in offline.query_many(queries[:2], k=3)]
        log_file = tmp_path / "server.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(Path(__file__).resolve().parents[2] / "src")
                             + os.pathsep + env.get("PYTHONPATH", ""))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(path),
             "--port", "0", "--max-wait-ms", "1",
             "--log-file", str(log_file)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            banner = process.stdout.readline()
            assert "Serving vector index" in banner, banner
            port = int(banner.split("http://127.0.0.1:")[1].split()[0])
            status, data = http_request(port, "GET", "/healthz")
            assert status == 200 and json.loads(data)["status"] == "ok"
            status, payload = post_query(
                port, {"vectors": queries[:2].tolist(), "k": 3})
            assert status == 200
            assert [served_ranking(result["hits"])
                    for result in payload["results"]] == want
        finally:
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=30)
        assert process.returncode == 0, stderr
        assert "Draining" in stdout
        assert log_file.exists()
        log_text = log_file.read_text()
        assert "serving kind=vector" in log_text
        assert "POST /query -> 200" in log_text
        assert "stopped after" in log_text

    def test_cli_rejects_bad_flags(self, capsys, tmp_path):
        from repro.cli import main

        keys, vectors = make_corpus(n=30, dim=8, seed=1)
        path = save_layout(tmp_path, keys, vectors, 1)
        assert main(["serve", str(path), "--max-batch", "0"]) == 2
        assert main(["serve", str(path), "--max-wait-ms", "-1"]) == 2
        assert main(["serve", str(path), "--jobs", "0"]) == 2
        assert main(["serve", str(path), "--max-open", "0"]) == 2
        assert main(["serve", str(tmp_path / "missing.npz")]) == 2
        err = capsys.readouterr().err
        assert "--max-batch" in err and "--max-open" in err
        assert "no index file" in err
