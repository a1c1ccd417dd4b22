"""The pre-fork serving tier: unit layer (backoff, sockets, stats
files) plus in-process supervisor behaviour and full CLI end-to-end
fleets.

The e2e house rule carries over unchanged from the single-process
suite: a ranking served by *any* worker must be bit-identical to the
offline ``query_many`` path — pre-forking multiplies processes, never
answers.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.index import open_index
from repro.serve.prefork import (
    PreforkSupervisor,
    RestartBackoff,
    aggregate_worker_stats,
    bind_socket,
    read_worker_stats,
    write_worker_stats,
)

from preforkutil import SRC, PreforkFleet, post_query_retry
from serveutil import (
    make_corpus,
    offline_ranking,
    post_query,
    save_layout,
    served_ranking,
)


class TestRestartBackoff:
    def test_crash_loop_doubles_to_cap(self):
        backoff = RestartBackoff(initial=0.1, cap=1.0, stable_after=5.0)
        delays = [backoff.next_delay(uptime=0.01) for _ in range(6)]
        assert delays == [0.1, 0.2, 0.4, 0.8, 1.0, 1.0]

    def test_stable_uptime_resets(self):
        backoff = RestartBackoff(initial=0.1, cap=1.0, stable_after=5.0)
        assert backoff.next_delay(0.01) == 0.1
        assert backoff.next_delay(0.01) == 0.2
        # A crash after a long healthy run is a fresh incident.
        assert backoff.next_delay(uptime=60.0) == 0.1
        assert backoff.next_delay(0.01) == 0.2

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            RestartBackoff(initial=0.0)
        with pytest.raises(ValueError):
            RestartBackoff(initial=2.0, cap=1.0)


class TestBindSocket:
    def test_binds_without_listening(self):
        sock = bind_socket("127.0.0.1", 0)
        try:
            port = sock.getsockname()[1]
            assert port > 0
            # Not listening: a connect attempt is refused, proving the
            # supervisor's socket can never swallow client connections.
            with pytest.raises(OSError):
                probe = socket.create_connection(("127.0.0.1", port),
                                                 timeout=2)
                probe.close()
        finally:
            sock.close()

    @pytest.mark.skipif(not hasattr(socket, "SO_REUSEPORT"),
                        reason="platform lacks SO_REUSEPORT")
    def test_reuseport_allows_sibling_binds(self):
        first = bind_socket("127.0.0.1", 0, reuse_port=True)
        try:
            port = first.getsockname()[1]
            second = bind_socket("127.0.0.1", port, reuse_port=True)
            second.close()
        finally:
            first.close()


class TestWorkerStatsFiles:
    def record(self, worker_id, queries, latencies):
        return {"worker_id": worker_id, "pid": 1000 + worker_id,
                "updated_at": 1.0,
                "stats": {"requests_total": queries,
                          "queries_total": queries,
                          "qps": float(queries),
                          "responses_by_status": {"200": queries},
                          "dispatcher": {"rejected": 0},
                          "batch": {"dispatched": 1}},
                "latencies": latencies}

    def test_write_read_round_trip(self, tmp_path):
        write_worker_stats(tmp_path, 0, self.record(0, 5, [0.01]))
        write_worker_stats(tmp_path, 1, self.record(1, 7, [0.02]))
        records = read_worker_stats(tmp_path)
        assert sorted(records) == [0, 1]
        assert records[1]["stats"]["queries_total"] == 7

    def test_rewrite_replaces_atomically(self, tmp_path):
        write_worker_stats(tmp_path, 0, self.record(0, 1, []))
        write_worker_stats(tmp_path, 0, self.record(0, 9, []))
        records = read_worker_stats(tmp_path)
        assert records[0]["stats"]["queries_total"] == 9
        # No stray tmp files left behind.
        assert [p.name for p in tmp_path.iterdir()] == ["worker-000.json"]

    def test_torn_or_foreign_files_are_skipped(self, tmp_path):
        write_worker_stats(tmp_path, 0, self.record(0, 3, []))
        (tmp_path / "worker-001.json").write_text("{not json")
        (tmp_path / "worker-002.json").write_text('["no", "dict"]')
        assert sorted(read_worker_stats(tmp_path)) == [0]

    def test_aggregate_sums_and_concatenates(self, tmp_path):
        records = {
            0: self.record(0, 10, [0.001] * 9),
            1: self.record(1, 30, [0.100]),
        }
        rollup = aggregate_worker_stats(records)
        assert rollup["workers"] == 2
        assert rollup["queries_total"] == 40
        assert rollup["qps"] == pytest.approx(40.0)
        assert rollup["responses_by_status"] == {"200": 40}
        # Percentiles over the CONCATENATED reservoirs: p50 of nine
        # 1 ms values plus one 100 ms value is 1 ms, max is 100 ms —
        # averaging per-worker percentiles would have said ~50 ms.
        assert rollup["latency_ms"]["p50"] == pytest.approx(1.0)
        assert rollup["latency_ms"]["max"] == pytest.approx(100.0)

    def test_aggregate_of_nothing(self):
        rollup = aggregate_worker_stats({})
        assert rollup["workers"] == 0
        assert rollup["queries_total"] == 0
        assert rollup["latency_ms"]["p50"] is None


class TestSupervisorInProcess:
    """Supervisor mechanics with throwaway forked workers — no HTTP,
    no index; the children just mark files / exit with codes."""

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="n_workers"):
            PreforkSupervisor(lambda *_: 0, 0)

    def test_fatal_exit_code_shuts_fleet_down(self, tmp_path):
        def worker_main(worker_id, sock):
            return 2  # config error: restarting can never help

        supervisor = PreforkSupervisor(worker_main, 2, log=lambda _m: None)
        assert supervisor.run(install_signals=False) == 2
        assert supervisor.worker_pids == {}

    def test_crashed_worker_restarts_with_backoff(self, tmp_path):
        boots = tmp_path / "boots"

        def worker_main(worker_id, sock):
            with open(boots, "a") as handle:
                handle.write(f"{worker_id}\n")
            return 0  # instant exit: not fatal, so the slot restarts

        supervisor = PreforkSupervisor(
            worker_main, 1, backoff_initial=0.02, backoff_cap=0.1,
            log=lambda _m: None)
        thread = threading.Thread(
            target=lambda: supervisor.run(install_signals=False))
        thread.start()
        try:
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                if (boots.exists()
                        and len(boots.read_text().splitlines()) >= 3):
                    break
                time.sleep(0.02)
        finally:
            supervisor.request_stop()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert len(boots.read_text().splitlines()) >= 3
        assert supervisor.restarts_total >= 2

    def test_drain_reaps_long_running_workers(self):
        def worker_main(worker_id, sock):
            # SIGTERM was reset to SIG_DFL in the child, so the drain
            # fan-out terminates this sleep.
            time.sleep(60)
            return 0

        supervisor = PreforkSupervisor(worker_main, 2,
                                       log=lambda _m: None)
        thread = threading.Thread(
            target=lambda: supervisor.run(install_signals=False))
        thread.start()
        deadline = time.monotonic() + 10
        while (len(supervisor.worker_pids) < 2
               and time.monotonic() < deadline):
            time.sleep(0.02)
        assert len(supervisor.worker_pids) == 2
        supervisor.request_stop()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert supervisor.worker_pids == {}

    def test_stop_signal_at_fork_kills_the_new_worker(self):
        """A SIGTERM that reaches a worker between ``fork()`` and its
        signal reset must kill it (so the slot restarts), not run the
        supervisor's inherited handler on the child's copy.  In a
        subprocess: an at-fork hook and a process-wide handler cannot
        be undone in this one."""
        script = textwrap.dedent("""
            import os, signal, threading
            from repro.serve.prefork import PreforkSupervisor

            def worker_main(worker_id, sock):
                threading.Event().wait(60)

            supervisor = PreforkSupervisor(
                worker_main, 1, backoff_initial=0.01, backoff_cap=0.05,
                drain_timeout=10, log=lambda _m: None)
            os.register_at_fork(after_in_child=lambda: os.kill(
                os.getpid(), signal.SIGTERM))
            threading.Timer(2.0, supervisor.request_stop).start()
            supervisor.run()
            print(supervisor.restarts_total)
        """)
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout.split()[-1]) >= 1

    def test_port_resolves_before_fork(self):
        supervisor = PreforkSupervisor(lambda *_: 0, 1,
                                       log=lambda _m: None)
        supervisor.start()
        try:
            assert supervisor.port > 0
        finally:
            supervisor._cleanup()


@pytest.fixture(scope="module")
def layout(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("prefork-corpus")
    keys, vectors = make_corpus(n=120, dim=16, seed=3)
    path = save_layout(tmp, keys, vectors, 2, seed=3)
    queries = vectors[:6]
    offline = open_index(path)
    expected = [offline_ranking(hits)
                for hits in offline.query_many(queries, k=5)]
    return path, queries, expected


class TestPreforkE2E:
    def test_any_worker_ranking_matches_offline(self, layout):
        """The equivalence gate: hammer a 2-worker fleet over fresh
        connections (so accepts spread across workers) and require
        every served ranking bit-identical to the offline path —
        while proving more than one worker actually answered."""
        path, queries, expected = layout
        with PreforkFleet(path, 2,
                          extra_args=["--max-wait-ms", "1"]) as fleet:
            seen = fleet.sample_workers()
            assert len(seen) == 2, f"only saw workers {seen}"
            for i in range(40):
                j = i % len(queries)
                status, payload = post_query(
                    fleet.port, {"vector": queries[j].tolist(), "k": 5})
                assert status == 200
                assert served_ranking(payload["hits"]) == expected[j]
            code, stdout, stderr = fleet.stop()
        assert code == 0, stderr
        assert "All 2 workers drained" in stdout

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sigterm_drains_parked_requests(self, layout, workers):
        """SIGTERM lands while requests are parked in micro-batch
        windows: every one must still get its (correct) answer, at
        every worker count — 1 is the plain single-process path, >1
        the supervisor fan-out."""
        path, queries, expected = layout
        results: list[tuple[int, int, list]] = []
        lock = threading.Lock()
        with PreforkFleet(path, workers,
                          extra_args=["--max-wait-ms", "400",
                                      "--max-batch", "64"]) as fleet:
            def client(j: int) -> None:
                status, payload = post_query(
                    fleet.port, {"vector": queries[j].tolist(), "k": 5},
                    timeout=60)
                with lock:
                    results.append(
                        (j, status,
                         served_ranking(payload.get("hits", []))))

            threads = [threading.Thread(target=client, args=(j,))
                       for j in range(len(queries))]
            for thread in threads:
                thread.start()
            # Give every request time to arrive and park in a batch
            # window (400 ms wait), then pull the rug.
            time.sleep(0.15)
            code, stdout, _stderr = fleet.stop(sig=signal.SIGTERM)
            for thread in threads:
                thread.join(timeout=60)
        assert code == 0
        assert len(results) == len(queries)
        for j, status, ranking in results:
            assert status == 200, f"query {j} got {status} during drain"
            assert ranking == expected[j]

    def test_fleet_stats_sections_and_aggregate(self, layout):
        path, queries, expected = layout
        with PreforkFleet(path, 3,
                          extra_args=["--max-wait-ms", "1"]) as fleet:
            n_posted = 12
            for i in range(n_posted):
                status, payload = post_query(
                    fleet.port,
                    {"vector": queries[i % len(queries)].tolist(),
                     "k": 5})
                assert status == 200
            # Let every worker's flush loop publish its counters.
            time.sleep(0.6)
            stats = fleet.stats()
            assert stats["worker_id"] in (0, 1, 2)
            assert sorted(stats["workers"]) == ["0", "1", "2"]
            for section in stats["workers"].values():
                assert "pid" in section and "updated_at" in section
                assert "latency_ms" in section
            aggregate = stats["aggregate"]
            assert aggregate["workers"] == 3
            assert aggregate["queries_total"] == n_posted
            code, _stdout, stderr = fleet.stop()
        assert code == 0, stderr

    def test_killed_worker_restarts_and_serves_correctly(self, layout):
        """SIGKILL one worker of two: the supervisor restarts it (the
        supervisor itself never restarts — same top-level pid, exit 0
        at the end), and not a single query answered before, during,
        or after the fault is wrong."""
        path, queries, expected = layout
        with PreforkFleet(path, 2,
                          extra_args=["--max-wait-ms", "1"]) as fleet:
            before = fleet.sample_workers()
            assert len(before) == 2
            import os
            victim = before[0]
            os.kill(victim, signal.SIGKILL)
            replacement = fleet.wait_for_pid_change(set(before.values()))
            assert replacement not in before.values()
            for i in range(20):
                j = i % len(queries)
                payload, _retries = post_query_retry(
                    fleet.port, {"vector": queries[j].tolist(), "k": 5})
                assert served_ranking(payload["hits"]) == expected[j]
            code, stdout, stderr = fleet.stop()
        assert code == 0, stderr
        assert "restarting" in stdout
        assert "1 restart(s)" in stdout

    def test_workers_with_cluster_is_rejected(self, tmp_path, capsys):
        from repro.cli import main

        topology = tmp_path / "topology.json"
        topology.write_text(json.dumps({"shards": []}))
        assert main(["serve", "--cluster", str(topology),
                     "--workers", "2"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_fatal_worker_config_error_exits_two(self, tmp_path, layout):
        """A worker that cannot start must take the fleet down with
        exit code 2, not crash-loop.  The parent only validates the
        manifest (cheap, fork-safe), so a layout whose shard data is
        corrupt passes the parent and fails in the child — exactly the
        supervisor's fatal-exit path."""
        import shutil

        path, _queries, _expected = layout
        doomed = tmp_path / "doomed"
        shutil.copytree(path, doomed)
        # Keep shard 0 (the parent's spec peek reads it); corrupt the
        # rest so the child's full open is what fails.
        (doomed / "shard-0001.npz").write_bytes(b"truncated")
        with PreforkFleet(doomed, 2,
                          extra_args=["--max-wait-ms", "1"]) as fleet:
            code, _stdout, stderr = fleet.stop(timeout=30)
        assert code == 2
        assert "worker" in stderr
