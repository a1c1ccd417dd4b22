"""Fault injection: a dead shard yields one clear error (never a
half-merged ranking), and a restarted shard is picked back up without
touching the coordinator.

The soak test is the acceptance criterion in miniature: concurrent
clients hammer the coordinator while one shard server is stopped and
restarted mid-run.  Every response that *succeeds* must be bit-equal
to the local ranking; every failure must be the cluster's own error
type — zero wrong results, recovery without a coordinator restart."""

import threading
import time

import numpy as np
import pytest
from clusterutil import query_pool
from testutil import make_corpus, ranked, save_layout

from repro.cluster import (
    ClusterError,
    ClusterHarness,
    ShardUnavailable,
    split_layout,
)
from repro.index import open_index

DIM = 16
N_SHARDS = 4
N_SERVERS = 2


@pytest.fixture()
def cluster(tmp_path):
    keys, vectors = make_corpus(n=80, dim=DIM, seed=13)
    local_path = save_layout(tmp_path, keys, vectors, N_SHARDS, seed=13)
    paths = split_layout(local_path, tmp_path / "split", N_SERVERS)
    with ClusterHarness(paths) as harness:
        yield harness, open_index(local_path, mmap=True), vectors


def test_dead_shard_is_one_clear_error(cluster):
    harness, local, vectors = cluster
    remote = harness.connect(retries=1, backoff=0.01, timeout=5.0)
    matrix = query_pool(vectors)[:2]
    assert [ranked(h) for h in remote.query_many(matrix, k=5)] == \
           [ranked(h) for h in local.query_many(matrix, k=5)]
    harness.stop_shard(1)
    with pytest.raises(ShardUnavailable) as excinfo:
        remote.query_many(matrix, k=5)
    # The error names the shard and is the serving layer's 503.
    assert str(harness.topology.shards[1]) in str(excinfo.value)
    assert excinfo.value.http_status == 503


def test_recovery_needs_no_coordinator_restart(cluster):
    harness, local, vectors = cluster
    remote = harness.connect(retries=1, backoff=0.01, timeout=5.0)
    matrix = query_pool(vectors)[:3]
    expected = [ranked(h) for h in local.query_many(matrix, k=6)]
    assert [ranked(h) for h in remote.query_many(matrix, k=6)] == expected
    harness.stop_shard(0)
    with pytest.raises((ShardUnavailable, ClusterError)):
        remote.query_many(matrix, k=6)
    harness.start_shard(0)  # same port — topology unchanged
    assert [ranked(h) for h in remote.query_many(matrix, k=6)] == expected


def test_retries_ride_out_a_fast_restart(cluster):
    """With enough retry budget, a restart that completes inside the
    backoff window is invisible to the caller."""
    harness, local, vectors = cluster
    remote = harness.connect(retries=8, backoff=0.05, timeout=5.0)
    matrix = query_pool(vectors)[:2]
    expected = [ranked(h) for h in local.query_many(matrix, k=5)]
    harness.stop_shard(1)

    def resurrect():
        time.sleep(0.15)
        harness.start_shard(1)

    thread = threading.Thread(target=resurrect)
    thread.start()
    try:
        assert [ranked(h) for h in remote.query_many(matrix, k=5)] == expected
    finally:
        thread.join()


def test_soak_zero_wrong_results_through_restart(cluster):
    """Concurrent clients during a kill + restart: every success is
    bit-equal to local, every failure is a clean cluster error."""
    harness, local, vectors = cluster
    remote = harness.connect(retries=2, backoff=0.02, timeout=5.0)
    pool = query_pool(vectors, n_fresh=4)
    expected = {k: [ranked(h) for h in local.query_many(pool, k=k)]
                for k in (1, 5, 9)}
    stop_workers = threading.Event()
    wrong: list = []
    unexpected: list = []
    successes = [0]
    failures = [0]
    lock = threading.Lock()

    def client(worker: int) -> None:
        rng = np.random.default_rng(worker)
        while not stop_workers.is_set():
            k = int(rng.choice([1, 5, 9]))
            rows = rng.integers(0, len(pool), size=int(rng.integers(1, 4)))
            try:
                served = remote.query_many(pool[rows], k=k)
            except (ShardUnavailable, ClusterError):
                with lock:
                    failures[0] += 1
                continue
            except Exception as error:  # noqa: BLE001 - recorded, asserted
                with lock:
                    unexpected.append(repr(error))
                continue
            for row, hits in zip(rows, served):
                if ranked(hits) != expected[k][row]:
                    with lock:
                        wrong.append((k, int(row)))
            with lock:
                successes[0] += 1

    workers = [threading.Thread(target=client, args=(w,)) for w in range(4)]
    for worker in workers:
        worker.start()
    try:
        time.sleep(0.3)
        harness.stop_shard(1)
        time.sleep(0.3)
        harness.start_shard(1)
        deadline = time.monotonic() + 10
        # Keep going until recovery is proven: a post-restart success.
        baseline = successes[0]
        while successes[0] <= baseline and time.monotonic() < deadline:
            time.sleep(0.05)
        time.sleep(0.2)
    finally:
        stop_workers.set()
        for worker in workers:
            worker.join(timeout=30)
    assert wrong == [], f"bit-wrong results under fault: {wrong[:5]}"
    assert unexpected == [], f"non-cluster errors leaked: {unexpected[:5]}"
    assert successes[0] > 0
    # Recovery without coordinator restart, post-soak.
    assert [ranked(h) for h in remote.query_many(pool[:2], k=5)] == \
           expected[5][:2]
