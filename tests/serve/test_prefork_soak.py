"""Restart-under-soak for the pre-fork tier, mirroring
``tests/cluster/test_fault_injection.py``: a worker dies by SIGKILL in
the middle of sustained concurrent load and the fleet must (a) never
serve a wrong ranking and (b) never drop a request — clients whose TCP
connection died with the worker see a reset, retry, and land on a live
worker; every request eventually gets the bit-identical offline
answer.

The corpus is the tie-dense ``serveutil`` one (every vector appears
``DUP_EVERY`` times), so a restart that scrambled dispatcher demux or
cache state anywhere would surface as a ranking diff, not a flake.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.index import open_index

from preforkutil import PreforkFleet, post_query_retry
from testutil import make_corpus, ranked, save_layout

N_CLIENTS = 8
REQUESTS_PER_CLIENT = 25


@pytest.fixture(scope="module")
def soak_layout(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("prefork-soak")
    keys, vectors = make_corpus(n=240, dim=24, seed=11)
    path = save_layout(tmp, keys, vectors, 2, seed=11)
    queries = vectors[:12]
    offline = open_index(path)
    expected = [ranked(hits)
                for hits in offline.query_many(queries, k=5)]
    return path, queries, expected


def test_worker_killed_mid_soak_drops_nothing(soak_layout):
    path, queries, expected = soak_layout
    wrong: list[tuple[int, int]] = []
    completed: list[int] = []
    retries_total = [0]
    lock = threading.Lock()
    stop_clients = threading.Event()

    with PreforkFleet(path, 3,
                      extra_args=["--max-wait-ms", "1"]) as fleet:
        def client(client_id: int) -> None:
            for i in range(REQUESTS_PER_CLIENT):
                j = (client_id + i) % len(queries)
                payload, retries = post_query_retry(
                    fleet.port, {"vector": queries[j].tolist(), "k": 5})
                with lock:
                    retries_total[0] += retries
                    if ranked(payload["hits"]) != expected[j]:
                        wrong.append((client_id, i))
                    completed.append(client_id)
            # Hold the last client until the kill has happened, so the
            # fault always lands under live load.
            stop_clients.wait(timeout=60)

        threads = [threading.Thread(target=client, args=(c,))
                   for c in range(N_CLIENTS)]
        for thread in threads:
            thread.start()

        # Mid-soak fault: SIGKILL one worker while clients hammer.
        before = fleet.sample_workers()
        assert len(before) == 3
        time.sleep(0.2)
        victim = sorted(before.values())[0]
        os.kill(victim, signal.SIGKILL)

        replacement = fleet.wait_for_pid_change(set(before.values()))
        assert replacement not in before.values()
        stop_clients.set()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)

        # Post-fault: the restarted fleet still serves exact rankings.
        for j in range(len(queries)):
            payload, _retries = post_query_retry(
                fleet.port, {"vector": queries[j].tolist(), "k": 5})
            assert ranked(payload["hits"]) == expected[j]

        code, stdout, stderr = fleet.stop()

    assert wrong == [], f"wrong rankings under fault: {wrong}"
    assert len(completed) == N_CLIENTS * REQUESTS_PER_CLIENT, \
        "a client dropped requests"
    assert code == 0, stderr
    # The supervisor restarted the worker itself; the top-level
    # process never restarted (one clean exit 0 from the same pid).
    assert "restarting" in stdout
    assert "worker" in stdout
