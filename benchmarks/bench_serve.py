"""Serving throughput: micro-batching vs one-request-per-GEMM dispatch.

One synthetic corpus of seeded gaussian vectors is saved as a single
``.npz`` and as sharded layouts, then served by
:class:`~repro.serve.ServerThread` while ``n_clients`` threads hammer
``POST /query`` with single-query requests over keep-alive connections
— the workload micro-batching exists for.  Each layout runs twice:

- ``per-request`` — ``max_batch=1, max_wait_ms=0``: every request is
  its own ``query_many`` call, the dispatch a naive server would do;
- ``micro-batch(w)`` — ``max_batch=64`` with a ``w``-millisecond
  window: concurrent requests coalesce into shared GEMMs.

Every served ranking is asserted identical to the offline
``open_index().query_many`` result (JSON round-trips floats exactly),
so the QPS numbers compare correct servers only.  Cold-open timings
for eager vs memory-mapped loads of each layout are recorded too —
the mmap rows are why ``repro.cli serve`` maps by default.

Run directly (``PYTHONPATH=src python benchmarks/bench_serve.py``) or
via the smoke test in ``tests/serve/test_serve_bench_smoke.py``.

``--zipfian`` runs the *result-cache* workload instead (→
``results/BENCH_cache.json``): a zipfian (s≈1.1) request stream over a
small query pool — production traffic's shape — served with the cache
on vs off, plus a uniform stream (the cache's worst case).  Every
stream's served rankings are asserted identical to offline
``query_many`` *before* any timing is recorded.

``--prefork`` runs the *pre-fork fleet* workload instead (→
``results/BENCH_prefork.json``): ``serve --workers N`` booted through
the real CLI at fleet sizes 1/2/4, each gated on the same served ≡
offline equivalence before timing, with summed worker RSS and PSS
from ``/proc`` recording the mmap page-sharing story.

NB: on a single-core box the micro-batch win comes from shaving
per-request Python/GEMM dispatch overhead, not from parallelism; both
effects grow with real traffic and real hardware.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from pathlib import Path

import numpy as np

from repro.eval import ResultsTable, results_dir
from repro.index import IndexSpec, ShardedIndex, VectorIndex, open_index
from repro.serve import ServerThread

SHARD_COUNTS = (1, 5)
WINDOWS_MS = (1.0, 4.0)


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def _save_layout(root: Path, keys, vectors, n_shards: int, seed: int):
    dim = vectors.shape[1]
    if n_shards == 1:
        index = VectorIndex(dim=dim, seed=seed)
        index.add_batch(keys, vectors)
        return index.save(root / "single.npz")
    sharded = ShardedIndex.create(
        IndexSpec(kind="vector", dim=dim, seed=seed), n_shards)
    sharded.add_batch(keys, vectors)
    return sharded.save(root / f"sharded-{n_shards}")


def _hammer(port: int, queries: np.ndarray, k: int, n_clients: int,
            want: list) -> float:
    """Fire every query as its own request from ``n_clients`` keep-alive
    client threads; assert each response equals the offline ranking;
    return elapsed wall seconds."""
    slices = [list(range(c, len(queries), n_clients))
              for c in range(n_clients)]
    failures: list[str] = []

    def client(rows: list[int]) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            for q in rows:
                body = json.dumps({"vector": queries[q].tolist(),
                                   "k": k}).encode()
                conn.request("POST", "/query", body=body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                payload = json.loads(response.read())
                if response.status != 200:
                    failures.append(f"query {q}: status {response.status}")
                    continue
                got = [(hit["key"], hit["score"])
                       for hit in payload["hits"]]
                if got != want[q]:
                    failures.append(f"query {q}: served ranking diverged")
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(rows,))
               for rows in slices if rows]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if failures:
        raise AssertionError(
            f"served rankings diverged from offline query_many — the "
            f"server is broken, timings are meaningless: {failures[:3]}")
    return elapsed


def run(n_vectors: int = 20000, dim: int = 64, n_queries: int = 240,
        k: int = 10, n_clients: int = 8,
        shard_counts: tuple[int, ...] = SHARD_COUNTS,
        windows_ms: tuple[float, ...] = WINDOWS_MS,
        seed: int = 0, workdir: str | Path | None = None) -> dict:
    import tempfile

    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n_vectors, dim))
    queries = rng.standard_normal((n_queries, dim))
    keys = [f"k{i:06d}" for i in range(n_vectors)]
    records = []

    with tempfile.TemporaryDirectory() as scratch:
        root = Path(workdir) if workdir is not None else Path(scratch)
        for n_shards in shard_counts:
            layout = "single" if n_shards == 1 else f"shards={n_shards}"
            path = _save_layout(root, keys, vectors, n_shards, seed)

            seconds, offline = _timed(lambda: open_index(path))
            records.append({"op": "open", "mode": "eager", "layout": layout,
                            "n": n_vectors, "seconds": seconds, "qps": None})
            seconds, served_index = _timed(
                lambda: open_index(path, mmap=True))
            records.append({"op": "open", "mode": "mmap", "layout": layout,
                            "n": n_vectors, "seconds": seconds, "qps": None})

            want = [[(hit.key, hit.score) for hit in hits]
                    for hits in offline.query_many(queries, k=k)]

            modes = [("per-request", dict(max_batch=1, max_wait_ms=0.0))]
            modes += [(f"micro-batch(w={window:g}ms)",
                       dict(max_batch=64, max_wait_ms=window))
                      for window in windows_ms]
            for mode, knobs in modes:
                with ServerThread(served_index, **knobs) as handle:
                    seconds = _hammer(handle.port, queries, k, n_clients,
                                      want)
                    snapshot = handle.server.stats.snapshot()
                records.append({
                    "op": "serve", "mode": mode, "layout": layout,
                    "n": n_queries, "seconds": seconds,
                    "qps": n_queries / seconds if seconds else None,
                    "mean_batch": snapshot["batch"]["mean_size"],
                    "p99_ms": snapshot["latency_ms"]["p99"],
                })

    return {
        "benchmark": "serve",
        "config": {"n_vectors": n_vectors, "dim": dim,
                   "n_queries": n_queries, "k": k, "n_clients": n_clients,
                   "shard_counts": list(shard_counts),
                   "windows_ms": list(windows_ms), "seed": seed},
        "results": records,
    }


def _zipfian_stream(rng: np.random.Generator, pool_size: int, length: int,
                    s: float) -> np.ndarray:
    """``length`` pool indices drawn zipfian: P(rank r) ∝ 1/r^s."""
    weights = 1.0 / np.arange(1, pool_size + 1) ** s
    return rng.choice(pool_size, size=length, p=weights / weights.sum())


def _cache_stats(port: int) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", "/stats")
        payload = json.loads(conn.getresponse().read())
    finally:
        conn.close()
    return payload["indexes"]["default"]["cache"]


def run_cache(n_vectors: int = 20000, dim: int = 64, pool_size: int = 240,
              n_requests: int = 1200, k: int = 10, n_clients: int = 8,
              zipf_s: float = 1.1, cache_entries: int = 64,
              shard_counts: tuple[int, ...] = SHARD_COUNTS,
              seed: int = 0, workdir: str | Path | None = None) -> dict:
    """The result-cache workload: zipfian vs uniform request streams,
    cache on vs off, equivalence asserted before any
    timing (``_hammer`` refuses to return timings for a wrong server).

    The cache is deliberately smaller than the query pool
    (``cache_entries`` < ``pool_size``) so the distribution matters: a
    zipfian stream keeps its hot head resident while a uniform stream
    churns the LRU.
    """
    import tempfile

    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n_vectors, dim))
    pool = rng.standard_normal((pool_size, dim))
    keys = [f"k{i:06d}" for i in range(n_vectors)]
    records = []

    streams = {
        f"zipfian(s={zipf_s:g})": pool[_zipfian_stream(rng, pool_size,
                                                       n_requests, zipf_s)],
        "uniform": pool[rng.integers(0, pool_size, size=n_requests)],
    }

    with tempfile.TemporaryDirectory() as scratch:
        root = Path(workdir) if workdir is not None else Path(scratch)
        for n_shards in shard_counts:
            layout = "single" if n_shards == 1 else f"shards={n_shards}"
            path = _save_layout(root, keys, vectors, n_shards, seed)
            offline = open_index(path)
            served_index = open_index(path, mmap=True)
            for workload, stream in streams.items():
                want = [[(hit.key, hit.score) for hit in hits]
                        for hits in offline.query_many(stream, k=k)]
                for mode, cache_size in (("no-cache", 0),
                                         ("cached", cache_entries)):
                    with ServerThread(served_index, max_batch=64,
                                      max_wait_ms=1.0,
                                      cache_size=cache_size) as handle:
                        seconds = _hammer(handle.port, stream, k, n_clients,
                                          want)
                        cache = (_cache_stats(handle.port)
                                 if cache_size else None)
                    record = {
                        "op": "serve", "layout": layout,
                        "workload": workload, "mode": mode,
                        "n": n_requests, "seconds": seconds,
                        "qps": n_requests / seconds if seconds else None,
                    }
                    if cache is not None:
                        served = (cache["exact_hits"]
                                  + cache["semantic_hits"]
                                  + cache["misses"])
                        record["exact_hit_rate"] = (cache["exact_hits"]
                                                    / served)
                        record["semantic_hit_rate"] = (
                            cache["semantic_hits"] / served)
                        record["hit_rate"] = cache["hit_rate"]
                    records.append(record)

    return {
        "benchmark": "serve-cache",
        "config": {"n_vectors": n_vectors, "dim": dim,
                   "pool_size": pool_size, "n_requests": n_requests,
                   "k": k, "n_clients": n_clients, "zipf_s": zipf_s,
                   "cache_entries": cache_entries,
                   "shard_counts": list(shard_counts), "seed": seed},
        "results": records,
    }


def _fleet_mem_mb(pids: list[int]) -> dict:
    """Summed resident memory of ``pids`` from ``/proc``: ``rss_mb``
    (naive sum — double-counts pages shared between workers) and
    ``pss_mb`` (proportional set size — each shared page split across
    its mappers, the honest fleet total).  ``None`` where the platform
    lacks the files."""
    rss_kb, pss_kb, pss_seen = 0, 0, False
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmRSS:"):
                        rss_kb += int(line.split()[1])
                        break
        except OSError:
            return {"rss_mb": None, "pss_mb": None}
        try:
            with open(f"/proc/{pid}/smaps_rollup") as handle:
                for line in handle:
                    if line.startswith("Pss:"):
                        pss_kb += int(line.split()[1])
                        pss_seen = True
                        break
        except OSError:
            pass
    return {"rss_mb": rss_kb / 1024.0,
            "pss_mb": pss_kb / 1024.0 if pss_seen else None}


def run_prefork(n_vectors: int = 20000, dim: int = 64,
                n_queries: int = 240, k: int = 10, n_clients: int = 8,
                worker_counts: tuple[int, ...] = (1, 2, 4),
                n_shards: int = 5, seed: int = 0,
                workdir: str | Path | None = None) -> dict:
    """Pre-fork serving (``serve --workers N``) at each fleet size.

    Each fleet boots through the real CLI, exactly as an operator
    would.  Before any timing, a full equivalence pass asserts every
    ranking served by the fleet — whatever worker the kernel hands
    each connection to — is bit-identical to the offline
    ``query_many`` result; ``_hammer`` refuses to return timings
    otherwise.  The timed pass then runs with the result cache OFF so
    the numbers measure dispatch + GEMM, not cache hits, and the
    per-process memory is read from ``/proc`` (RSS naively summed,
    plus PSS, which shows the mmap page-sharing across workers).

    Honesty note recorded in the report: on a single-CPU container the
    workers serialize on the one core, so QPS stays flat or dips as
    workers grow (context-switch overhead with zero added parallelism)
    — the fleet sizes are exercised for correctness and memory shape
    there, not speedup.
    """
    import os
    import signal
    import subprocess
    import sys
    import tempfile

    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n_vectors, dim))
    queries = rng.standard_normal((n_queries, dim))
    keys = [f"k{i:06d}" for i in range(n_vectors)]
    records = []

    with tempfile.TemporaryDirectory() as scratch:
        root = Path(workdir) if workdir is not None else Path(scratch)
        path = _save_layout(root, keys, vectors, n_shards, seed)
        offline = open_index(path)
        want = [[(hit.key, hit.score) for hit in hits]
                for hits in offline.query_many(queries, k=k)]

        env = dict(os.environ)
        src = Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = (str(src) + os.pathsep
                             + env.get("PYTHONPATH", ""))
        for workers in worker_counts:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", str(path),
                 "--port", "0", "--workers", str(workers),
                 "--max-batch", "64", "--max-wait-ms", "1",
                 "--no-cache"],
                env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True)
            try:
                banner = process.stdout.readline()
                port = int(banner.split("http://127.0.0.1:")[1]
                           .split()[0])
                deadline = time.perf_counter() + 30
                while time.perf_counter() < deadline:
                    try:
                        conn = http.client.HTTPConnection(
                            "127.0.0.1", port, timeout=2)
                        conn.request("GET", "/healthz")
                        ok = conn.getresponse().status == 200
                        conn.close()
                        if ok:
                            break
                    except OSError:
                        time.sleep(0.05)
                # Equivalence gate (and warm-up): every fleet member's
                # rankings must match offline before we time anything.
                _hammer(port, queries, k, n_clients, want)
                seconds = _hammer(port, queries, k, n_clients, want)

                if workers > 1:
                    conn = http.client.HTTPConnection("127.0.0.1", port,
                                                      timeout=30)
                    conn.request("GET", "/stats")
                    stats = json.loads(conn.getresponse().read())
                    conn.close()
                    pids = [section["pid"] for section
                            in stats["workers"].values()]
                else:
                    pids = [process.pid]
                memory = _fleet_mem_mb(pids)
                records.append({
                    "op": "serve", "mode": f"prefork(workers={workers})",
                    "layout": f"shards={n_shards}", "n": n_queries,
                    "workers": workers, "seconds": seconds,
                    "qps": n_queries / seconds if seconds else None,
                    "rss_mb": memory["rss_mb"],
                    "pss_mb": memory["pss_mb"],
                })
            finally:
                process.send_signal(signal.SIGTERM)
                _stdout, stderr = process.communicate(timeout=60)
            if process.returncode != 0:
                raise AssertionError(
                    f"fleet (workers={workers}) exited "
                    f"{process.returncode}: {stderr[-500:]}")

    return {
        "benchmark": "serve-prefork",
        "config": {"n_vectors": n_vectors, "dim": dim,
                   "n_queries": n_queries, "k": k,
                   "n_clients": n_clients, "n_shards": n_shards,
                   "worker_counts": list(worker_counts), "seed": seed,
                   "cpus": os.cpu_count()},
        "note": ("equivalence asserted before timing: every ranking "
                 "served by any worker is bit-identical to offline "
                 "query_many; on a 1-CPU container QPS stays flat or "
                 "dips as workers grow (they serialize on the one core "
                 "and pay context-switch overhead) — fleet sizes "
                 "exercise correctness and memory shape there, not "
                 "speedup; PSS < summed RSS is the mmap page-sharing "
                 "across workers"),
        "results": records,
    }


def render_prefork(report: dict) -> ResultsTable:
    config = report["config"]
    out = ResultsTable(
        f"Pre-fork serving: {config['n_vectors']} vectors (dim "
        f"{config['dim']}), {config['n_queries']} queries @ "
        f"k={config['k']}, {config['n_clients']} clients, "
        f"{config['cpus']} cpu(s)",
        columns=["seconds", "qps", "rss MB", "pss MB"])
    for rec in report["results"]:
        row = f"{rec['layout']} {rec['mode']}"
        out.add(row, "seconds", f"{rec['seconds']:.3f}")
        out.add(row, "qps", f"{rec['qps']:.1f}" if rec["qps"] else "-")
        if rec.get("rss_mb") is not None:
            out.add(row, "rss MB", f"{rec['rss_mb']:.1f}")
        if rec.get("pss_mb") is not None:
            out.add(row, "pss MB", f"{rec['pss_mb']:.1f}")
    return out


def render_cache(report: dict) -> ResultsTable:
    config = report["config"]
    out = ResultsTable(
        f"Result cache: {config['n_vectors']} vectors (dim "
        f"{config['dim']}), {config['n_requests']} requests over a "
        f"{config['pool_size']}-query pool @ k={config['k']}, "
        f"{config['n_clients']} clients, {config['cache_entries']}-entry "
        "cache",
        columns=["seconds", "qps", "exact hits", "semantic hits"])
    for rec in report["results"]:
        row = f"{rec['layout']} {rec['workload']} {rec['mode']}"
        out.add(row, "seconds", f"{rec['seconds']:.3f}")
        out.add(row, "qps", f"{rec['qps']:.1f}" if rec["qps"] else "-")
        if "exact_hit_rate" in rec:
            out.add(row, "exact hits", f"{rec['exact_hit_rate']:.1%}")
            out.add(row, "semantic hits",
                    f"{rec['semantic_hit_rate']:.1%}")
    return out


def render(report: dict) -> ResultsTable:
    config = report["config"]
    out = ResultsTable(
        f"Retrieval serving: {config['n_vectors']} vectors (dim "
        f"{config['dim']}), {config['n_queries']} queries @ "
        f"k={config['k']}, {config['n_clients']} clients",
        columns=["seconds", "qps", "mean batch", "p99 ms"])
    for rec in report["results"]:
        row = f"{rec['layout']} {rec['op']} {rec['mode']}"
        out.add(row, "seconds", f"{rec['seconds']:.3f}")
        out.add(row, "qps", f"{rec['qps']:.1f}" if rec["qps"] else "-")
        if rec.get("mean_batch") is not None:
            out.add(row, "mean batch", f"{rec['mean_batch']:.1f}")
        if rec.get("p99_ms") is not None:
            out.add(row, "p99 ms", f"{rec['p99_ms']:.2f}")
    return out


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--zipfian", action="store_true",
                        help="run the result-cache workload (zipfian/"
                             "uniform streams, cache on vs off) "
                             "instead of the dispatch benchmark")
    parser.add_argument("--prefork", action="store_true",
                        help="run the pre-fork fleet workload (serve "
                             "--workers at 1/2/4, equivalence-gated, "
                             "QPS + RSS/PSS per fleet size) instead of "
                             "the dispatch benchmark")
    args = parser.parse_args(argv)
    if args.prefork:
        report = run_prefork()
        render_prefork(report).show()
        path = results_dir() / "BENCH_prefork.json"
    elif args.zipfian:
        report = run_cache()
        render_cache(report).show()
        path = results_dir() / "BENCH_cache.json"
    else:
        report = run()
        render(report).show()
        path = results_dir() / "BENCH_serve.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"Wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
