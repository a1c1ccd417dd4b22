"""Smoke test for the serving benchmark harness.

Runs ``benchmarks/bench_serve.py`` at a miniature configuration — the
harness itself asserts every served ranking equals the offline
``query_many`` result, so passing here means the equivalence held with
a real server, real sockets and concurrent clients.  QPS *ordering* is
deliberately not asserted at smoke scale (single-core CI noise); the
tracked ``results/BENCH_serve.json`` carries the full-scale numbers.
"""

import importlib.util
import json
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"


def load_module(name: str):
    spec = importlib.util.spec_from_file_location(name,
                                                  BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_serve_smoke(tmp_path):
    bench = load_module("bench_serve")
    report = bench.run(n_vectors=200, dim=16, n_queries=24, k=5,
                       n_clients=2, shard_counts=(2,), windows_ms=(1.0,),
                       workdir=tmp_path)
    assert report["benchmark"] == "serve"
    assert report["config"]["n_clients"] == 2
    modes = [(r["op"], r["mode"], r["layout"]) for r in report["results"]]
    assert modes == [("open", "eager", "shards=2"),
                     ("open", "mmap", "shards=2"),
                     ("serve", "per-request", "shards=2"),
                     ("serve", "micro-batch(w=1ms)", "shards=2")]
    for record in report["results"]:
        assert record["seconds"] >= 0
        if record["op"] == "serve":
            assert record["qps"] > 0
            assert record["n"] == 24
    per_request = next(r for r in report["results"]
                       if r["mode"] == "per-request")
    micro = next(r for r in report["results"]
                 if r["mode"].startswith("micro-batch"))
    # Dispatch shapes, not speed: per-request ticks are singletons,
    # micro-batch ticks may coalesce.
    assert per_request["mean_batch"] == 1.0
    assert micro["mean_batch"] >= 1.0
    # JSON-serializable, as the BENCH_*.json tracking requires.
    (tmp_path / "BENCH_serve.json").write_text(json.dumps(report))
    text = bench.render(report).to_text()
    assert "per-request" in text and "micro-batch" in text


def test_bench_prefork_smoke(tmp_path):
    """The ``--prefork`` fleet workload at miniature scale: fleets of
    1 and 2 boot through the real CLI, pass the served ≡ offline gate
    (asserted inside ``_hammer`` before timing), report QPS, and exit
    0 on SIGTERM.  QPS ordering across fleet sizes is deliberately not
    asserted — on a 1-CPU runner flat is the honest answer."""
    bench = load_module("bench_serve")
    report = bench.run_prefork(n_vectors=200, dim=16, n_queries=24, k=5,
                               n_clients=2, worker_counts=(1, 2),
                               n_shards=2, workdir=tmp_path)
    assert report["benchmark"] == "serve-prefork"
    assert "bit-identical" in report["note"]
    assert [r["workers"] for r in report["results"]] == [1, 2]
    for record in report["results"]:
        assert record["seconds"] > 0
        assert record["qps"] > 0
        assert record["n"] == 24
        # /proc-backed memory accounting on Linux runners.
        if record["rss_mb"] is not None:
            assert record["rss_mb"] > 0
    (tmp_path / "BENCH_prefork.json").write_text(json.dumps(report))
    text = bench.render_prefork(report).to_text()
    assert "prefork(workers=2)" in text


def test_bench_cache_zipfian_smoke(tmp_path):
    """The ``--zipfian`` cache workload at miniature scale.  The
    harness asserts served == offline rankings before any timing, so
    passing means cached equivalence held over real sockets; hit-rate
    *shape* (zipfian tiny pool → mostly exact hits) is asserted, QPS
    ordering is not (CI noise)."""
    bench = load_module("bench_serve")
    report = bench.run_cache(n_vectors=200, dim=16, pool_size=6,
                             n_requests=60, k=5, n_clients=2,
                             shard_counts=(2,), workdir=tmp_path)
    assert report["benchmark"] == "serve-cache"
    by_key = {(r["workload"], r["mode"]): r for r in report["results"]}
    assert len(by_key) == 4  # 2 workloads x {no-cache, cached}
    for record in report["results"]:
        assert record["seconds"] >= 0
        assert record["qps"] > 0
        assert record["n"] == 60
        if record["mode"] == "no-cache":
            assert "exact_hit_rate" not in record
    zipfian = by_key[("zipfian(s=1.1)", "cached")]
    # 60 requests over 6 distinct queries: at most 6 exact misses.
    assert zipfian["exact_hit_rate"] >= 0.5
    (tmp_path / "BENCH_cache.json").write_text(json.dumps(report))
    text = bench.render_cache(report).to_text()
    assert "zipfian" in text and "uniform" in text
