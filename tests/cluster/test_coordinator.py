"""The coordinator's surfaces around its load-bearing property.

*Distributed equals local, bit for bit* — every ``(n_shards,
n_servers)`` split, duplicate ties and ``k`` around the global
fallback threshold — is the reference oracle's ``cluster`` and
``cluster-served-*`` modes (``tests/test_reference_oracle.py``).  This
file pins the rest: the remote index's identity surface and refusals,
generation propagation (restart-monotonic), the exact-tier result
cache over a remote index, malformed shard replies, and the identity
checks ``connect()`` performs.
"""

import asyncio

import numpy as np
import pytest
from dispatchutil import cached, dispatch
from testutil import make_corpus, ranked, save_layout

from repro.cluster import (
    ClusterHarness,
    RemoteShard,
    RemoteShardedIndex,
    ShardAddress,
    ShardProtocolError,
    ShardServerThread,
    Topology,
    TopologyError,
    split_layout,
)
from repro.index import ShardedIndex, VectorIndex, open_index

DIM = 16


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    """Five shards over two running servers: ``(local_path, vectors,
    coordinator)``."""
    tmp = tmp_path_factory.mktemp("coord")
    keys, vectors = make_corpus(n=75, dim=DIM, seed=5)
    local_path = save_layout(tmp, keys, vectors, 5, seed=5)
    with ClusterHarness(split_layout(local_path, tmp / "split", 2)) as harness:
        yield local_path, vectors, harness.connect(retries=1)


class TestDistributedEqualsLocal:
    def test_query_vector_and_surface(self, cluster):
        local_path, vectors, remote = cluster
        local = open_index(local_path, mmap=True)
        assert remote.kind == local.kind
        assert remote.dim == local.dim
        assert remote.n_shards == local.n_shards
        assert remote.n_servers == 2
        assert len(remote) == len(local)
        assert remote.format_version == local.format_version
        hit_lists = remote.query_vector(vectors[0], k=3,
                                        exclude="t00000", jobs=2)
        offline = local.query_many(vectors[0][None, :], k=3,
                                   excludes=["t00000"])[0]
        assert ranked(hit_lists) == ranked(offline)

    def test_bad_params_rejected(self, cluster):
        _path, vectors, remote = cluster
        with pytest.raises(ValueError, match="k must be"):
            remote.query_many(vectors[:1], k=0)
        with pytest.raises(ValueError):
            remote.query_many(vectors[:1], k=3, jobs=0)


def _memory_cluster(n_entries=30, seed=9, dim=DIM):
    """One in-memory shard server whose index the test can mutate."""
    rng = np.random.default_rng(seed)
    index = VectorIndex(dim=dim, seed=seed)
    keys = [f"m{i:04d}" for i in range(n_entries)]
    vectors = rng.standard_normal((n_entries, dim))
    index.add_batch(keys, vectors)
    return index, vectors


class TestGenerationAndCache:
    def test_generation_propagates_from_shard_mutations(self):
        index, vectors = _memory_cluster()
        with ShardServerThread(index) as handle:
            remote = RemoteShardedIndex.connect(
                Topology.from_addresses([("127.0.0.1", handle.port)]),
                retries=1)
            try:
                before = remote.generation
                assert before == index.generation
                index.add("extra", np.ones(DIM))
                # A query fan-out carries the new generation back.
                remote.query_many(vectors[:1], k=3)
                assert remote.generation == index.generation > before
            finally:
                remote.close()

    def test_generation_survives_restart_monotonically(self, tmp_path):
        """A shard restarting from disk resets its local counter; the
        coordinator's offset must keep the cluster generation from ever
        repeating (cache flushed spuriously at worst, never stale)."""
        keys, vectors = make_corpus(n=30, dim=DIM, seed=2)
        path = save_layout(tmp_path, keys, vectors, 1, seed=2)
        with ClusterHarness([path]) as cluster:
            remote = cluster.connect(retries=3, backoff=0.01)
            live = cluster.members[0].server.index
            live.add("fresh", np.ones(DIM))
            remote.query_many(vectors[:1], k=3)
            high = remote.generation
            # Restart: the reopened index starts at generation 0 again.
            cluster.stop_shard(0)
            cluster.start_shard(0)
            remote.query_many(vectors[:1], k=3)
            assert remote.generation >= high

    def test_exact_cache_over_remote_index(self):
        index, vectors = _memory_cluster()
        with ShardServerThread(index) as handle:
            remote = RemoteShardedIndex.connect(
                Topology.from_addresses([("127.0.0.1", handle.port)]),
                retries=1)
            try:
                dispatcher = cached(remote, 32)
                first = dispatch(dispatcher, vectors[:2], 4)
                again = dispatch(dispatcher, vectors[:2], 4)
                assert [ranked(h) for h in first] == \
                       [ranked(h) for h in again]
                # Second pass is served purely from the cache.
                assert dispatcher.counters.exact_hits == 2
                assert dispatcher.counters.misses == 2
                assert ranked(first[0]) == ranked(
                    remote.query_many(vectors[:1], k=4)[0])
            finally:
                remote.close()

    def test_exact_cache_invalidates_on_shard_data_change(self):
        index, vectors = _memory_cluster()
        with ShardServerThread(index) as handle:
            remote = RemoteShardedIndex.connect(
                Topology.from_addresses([("127.0.0.1", handle.port)]),
                retries=1)
            try:
                dispatcher = cached(remote, 32)
                dispatch(dispatcher, vectors[:1], 4)
                # Mutate the shard: a near-duplicate of the query lands
                # at the top.  The cached entry must not be served.
                index.add("winner", vectors[0])
                remote.query_many(vectors[1:2], k=1)  # observe new gen
                served = dispatch(dispatcher, vectors[:1], 4)[0]
                assert ranked(served) == ranked(
                    remote.query_many(vectors[:1], k=4)[0])
                assert "winner" in {hit.key for hit in served}
            finally:
                remote.close()


class TestMalformedReplies:
    @pytest.mark.parametrize("reply", [
        b"HTTP/1.1 abc OK\r\nContent-Length: 2\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n[]",
        b"SSH-2.0-OpenSSH_9.6\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 100000\r\n\r\n"
        + b"[" * 100_000,
    ], ids=["status-not-a-number", "length-not-a-number",
            "negative-length", "body-not-an-object", "not-http",
            "body-nested-too-deep"])
    def test_is_a_protocol_error_without_retry(self, reply):
        """A peer that answers, but not as a shard server does, is a
        terminal :class:`ShardProtocolError` (a clean 503 behind
        ``serve``), never a bare exception and never retried."""
        answered = []

        async def answer(reader, writer):
            answered.append(await reader.readuntil(b"\r\n\r\n"))
            writer.write(reply)
            await writer.drain()
            writer.close()

        async def run():
            server = await asyncio.start_server(answer, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            remote = RemoteShard(ShardAddress("127.0.0.1", port),
                                 timeout=5.0, retries=2, backoff=0.0)
            try:
                with pytest.raises(ShardProtocolError):
                    await remote.request("GET", "/healthz")
            finally:
                remote.flush_pool()
                server.close()
                await server.wait_closed()

        asyncio.run(run())
        assert len(answered) == 1


class TestConnectValidation:
    def test_spec_mismatch_refuses_to_boot(self):
        a_index, _ = _memory_cluster(seed=1)
        b_index = VectorIndex(dim=DIM, seed=99)  # different hyperplanes
        b_index.add_batch([f"b{i}" for i in range(10)],
                          np.random.default_rng(1).standard_normal((10, DIM)))
        with ShardServerThread(a_index) as a, ShardServerThread(b_index) as b:
            topology = Topology.from_addresses(
                [("127.0.0.1", a.port), ("127.0.0.1", b.port)])
            with pytest.raises(TopologyError, match="spec"):
                RemoteShardedIndex.connect(topology, retries=0)

    def test_unreachable_server_refuses_to_boot(self):
        index, _ = _memory_cluster()
        with ShardServerThread(index) as handle:
            topology = Topology.from_addresses(
                [("127.0.0.1", handle.port), ("127.0.0.1", 1)])
            with pytest.raises(Exception):
                RemoteShardedIndex.connect(topology, retries=0,
                                           timeout=2.0, backoff=0.0)

    def test_split_layout_rejects_impossible_split(self, tmp_path):
        keys, vectors = make_corpus(n=30, dim=DIM, seed=2)
        path = save_layout(tmp_path, keys, vectors, 2, seed=2)
        with pytest.raises(ValueError, match="cannot split"):
            split_layout(path, tmp_path / "split", 3)

    def test_split_layout_preserves_flat_order(self, tmp_path):
        keys, vectors = make_corpus(n=50, dim=DIM, seed=4)
        path = save_layout(tmp_path, keys, vectors, 5, seed=4)
        local = open_index(path)
        paths = split_layout(path, tmp_path / "split", 2)
        flat = []
        for sub in paths:
            opened = open_index(sub)
            flat.extend(list(opened.shards)
                        if isinstance(opened, ShardedIndex) else [opened])
        assert len(flat) == local.n_shards
        for ours, theirs in zip(flat, local.shards):
            assert list(ours.keys) == list(theirs.keys)
