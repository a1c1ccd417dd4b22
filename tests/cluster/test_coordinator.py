"""The coordinator's load-bearing property: **distributed equals
local, bit for bit**.

Hypothesis drives query batches through every (shard count × server
split × mmap) cluster shape and requires `RemoteShardedIndex.
query_many` to return exactly what the local `ShardedIndex` over the
same flat shard sequence returns — keys, scores, tie order — including
at the brute-force fallback boundary ``k ∈ {total-1, total, total+1}``
around each query's global candidate total, where a coordinator that
decided the fallback on a *per-server* count instead of the global one
would flip queries on or off the brute path.

A second class pins the composition surfaces: generation propagation
(restart-monotonic), the exact-tier result cache over a remote index,
and the identity checks `connect()` performs.
"""

import asyncio

import numpy as np
import pytest
from clusterutil import make_corpus, query_pool, ranked, save_layout
from dispatchutil import cached, dispatch
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from repro.index import IndexSpec, ShardedIndex, VectorIndex, open_index

DIM = 16
#: (n_shards, n_servers) — every split of the tier-1 shard counts.
SHAPES = [(1, 1), (2, 1), (2, 2), (5, 1), (5, 2), (5, 5)]


@pytest.fixture(scope="module")
def clusters(tmp_path_factory):
    """One running cluster per shape, shared by every hypothesis
    example: {(n_shards, n_servers): (local_path, coordinator)}."""
    built = {}
    stack = []
    for n_shards, n_servers in SHAPES:
        tmp = tmp_path_factory.mktemp(f"coord-{n_shards}x{n_servers}")
        keys, vectors = make_corpus(n=75, dim=DIM, seed=5)
        local_path = save_layout(tmp, keys, vectors, n_shards, seed=5)
        paths = (split_layout(local_path, tmp / "split", n_servers)
                 if n_shards > 1 else [local_path])
        harness = ClusterHarness(paths).start()
        stack.append(harness)
        built[(n_shards, n_servers)] = (local_path, vectors,
                                        harness.connect(retries=1))
    yield built
    for harness in stack:
        harness.stop()


class TestDistributedEqualsLocal:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(shape=st.sampled_from(SHAPES), mmap=st.booleans(),
           seed=st.integers(0, 2**16), k=st.integers(1, 80),
           n_queries=st.integers(1, 6), with_excludes=st.booleans())
    def test_query_many_bit_identical(self, clusters, shape, mmap, seed,
                                      k, n_queries, with_excludes):
        local_path, vectors, remote = clusters[shape]
        local = open_index(local_path, mmap=mmap)
        rng = np.random.default_rng(seed)
        pool = query_pool(vectors, n_fresh=4, seed=seed)
        matrix = pool[rng.integers(0, len(pool), size=n_queries)]
        excludes = None
        if with_excludes:
            excludes = [f"t{rng.integers(0, 75):05d}"
                        if rng.random() < 0.5 else None
                        for _ in range(n_queries)]
        served = remote.query_many(matrix, k=k, excludes=excludes)
        offline = local.query_many(matrix, k=k, excludes=excludes)
        assert [ranked(hits) for hits in served] == \
               [ranked(hits) for hits in offline]

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(shape=st.sampled_from(SHAPES), seed=st.integers(0, 2**16))
    def test_brute_force_fallback_boundary(self, clusters, shape, seed):
        """k right at {total-1, total, total+1} around the query's
        *global* LSH candidate total — the exact points where the
        fallback decision flips."""
        local_path, vectors, remote = clusters[shape]
        local = open_index(local_path, mmap=True)
        rng = np.random.default_rng(seed)
        pool = query_pool(vectors, n_fresh=4, seed=seed)
        matrix = pool[rng.integers(0, len(pool))][None, :]
        shards = (list(local.shards) if isinstance(local, ShardedIndex)
                  else [local])
        total = sum(shard.query_partial_many(matrix, 1,
                                             excludes=[None])[0][0]
                    for shard in shards)
        for k in {max(1, total - 1), max(1, total), total + 1}:
            served = remote.query_many(matrix, k=k)
            offline = local.query_many(matrix, k=k)
            assert [ranked(h) for h in served] == \
                   [ranked(h) for h in offline], (total, k)

    def test_query_vector_and_surface(self, clusters):
        local_path, vectors, remote = clusters[(5, 2)]
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

    def test_bad_params_rejected(self, clusters):
        _path, vectors, remote = clusters[(2, 2)]
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
    ], ids=["status-not-a-number", "length-not-a-number",
            "negative-length", "body-not-an-object", "not-http"])
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
