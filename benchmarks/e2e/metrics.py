"""The benchmark's metric names, units, directions and bounds, plus the
statistics every workload reports them with.

``BENCHMARK.json`` at the repository root lists the same names; the
smoke test keeps the two in step.
"""

from __future__ import annotations

import math
import statistics

WORKLOADS = {
    "serve_fresh_100k": "never-repeated queries against 100k vectors behind "
                        "`repro.cli serve` defaults: kernel-bound, the cache "
                        "only ever misses",
    "serve_hot_20k": "zipf stream over a 4096-query pool against 20k "
                     "vectors: ~80% exact cache hits, so wire, dispatch and "
                     "cache dominate and the kernel only sets p95",
    "cluster_batch_40k": "8-row query_many through RemoteShardedIndex over "
                         "two serve-shard processes: scatter-gather, the "
                         "JSON hop and the shared sharded merge",
    "ingest_mixed": "the paper's encoder plus add/remove/compact/save beside "
                    "query_table/query_column on reopened sharded layouts: "
                    "the write side",
}

#: name, unit, better, bound, target.  ``bound`` is the share of the
#: parent's median a metric may worsen before it is a regression; it is
#: what ``BENCHMARK.json`` declares and the driver enforces, so it has to
#: exceed the spread same-code runs show on this box (README.md, "Noise
#: and bounds") or unchanged code fails it.  ``target`` is what ISSUE 13
#: asked for; ``--selfcheck`` reports every gap against both.
#: ``ok_share`` is ``1 - failed_share``: the driver divides by a metric's
#: median, so a metric that reads 0 on every healthy run cannot be listed.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25, 0.10),
    ("qps", "1/s", "higher", 0.25, 0.10),
    ("p50_ms", "ms", "lower", 0.25, 0.10),
    ("p95_ms", "ms", "lower", 0.25, 0.10),
    ("ok_share", "share", "higher", 0.0, 0.0),
    ("recall_at_10", "share", "higher", 0.0, 0.0),
    ("map_at_10", "MAP", "higher", 0.0, 0.0),
    ("mrr_at_10", "MRR", "higher", 0.0, 0.0),
    ("rss_mb", "MB", "lower", 0.10, 0.05),
    ("disk_mb", "MB", "lower", 0.01, 0.01),
]

#: name, unit, better, what it should move (end-to-end metric @ workload).
PER_LAYER = [
    ("index.store.encode_tables_per_s", "1/s", "higher",
     "index.build_vectors_per_s, setup_s @ ingest_mixed"),
    ("index.store.sequences_per_batch", "count", "higher",
     "index.build_vectors_per_s @ ingest_mixed"),
    ("index.store.cache_hit_share", "share", "higher",
     "p50_ms, qps @ ingest_mixed"),
    ("core.embed_table_ms", "ms", "lower", "p95_ms, qps @ ingest_mixed"),
    ("index.build_vectors_per_s", "1/s", "higher", "setup_s @ all"),
    ("index.add_batch_vectors_per_s", "1/s", "higher",
     "index.build_vectors_per_s, setup_s @ all"),
    ("index.save_mb_per_s", "MB/s", "higher",
     "index.build_vectors_per_s, setup_s @ all"),
    ("index.open_mmap_ms", "ms", "lower",
     "setup_s, cli.serve_boot_ms @ serve and cluster workloads"),
    ("index.open_eager_ms", "ms", "lower", "setup_s @ ingest_mixed"),
    ("index.query_many_b1_us", "us", "lower",
     "qps, p50_ms @ serve_fresh_100k; p95_ms only @ serve_hot_20k"),
    ("index.query_many_b8_us", "us", "lower",
     "qps, p50_ms @ serve_fresh_100k under batching; cluster_batch_40k"),
    ("index.add_ms", "ms", "lower", "p95_ms, qps @ ingest_mixed"),
    ("index.remove_ms", "ms", "lower", "qps @ ingest_mixed"),
    ("index.compact_ms", "ms", "lower", "qps @ ingest_mixed"),
    ("index.brute_fallback_share", "share", "lower",
     "recall_at_10, p95_ms @ all"),
    ("index.quantized.query_many_b1_us", "us", "lower",
     "what --quantized would do to qps @ serve_fresh_100k"),
    ("index.quantized.resident_ratio", "ratio", "lower",
     "what --quantized would do to rss_mb @ serve_fresh_100k"),
    ("index.sharded.query_many_b8_us", "us", "lower",
     "qps, p50_ms @ cluster_batch_40k"),
    ("index.sharded.jobs2_speedup_x", "x", "higher",
     "qps @ cluster_batch_40k if the shard servers took --jobs"),
    ("index.sharded.merge_us", "us", "lower",
     "qps, p50_ms @ cluster_batch_40k"),
    ("retrieval.lsh.hash_us", "us", "lower",
     "qps, p50_ms @ serve_fresh_100k; ~0 @ serve_hot_20k"),
    ("retrieval.lsh.probe_us", "us", "lower",
     "qps, p50_ms @ serve_fresh_100k; ~0 @ serve_hot_20k"),
    ("retrieval.lsh.rank_us", "us", "lower",
     "qps, p50_ms @ serve_fresh_100k; p95_ms @ serve_hot_20k"),
    ("retrieval.lsh.candidates_per_query", "count", "lower",
     "qps, p50_ms @ serve_fresh_100k; recall_at_10 the other way"),
    ("retrieval.quantized.approx_scores_us", "us", "lower",
     "index.quantized.query_many_b1_us"),
    ("cache.exact_hit_share", "share", "higher",
     "qps, p50_ms @ serve_hot_20k; exactly 0 @ serve_fresh_100k"),
    ("cache.semantic_hit_share", "share", "higher",
     "p95_ms @ serve_hot_20k"),
    ("cache.miss_share", "share", "lower",
     "qps @ serve_hot_20k; ~1 @ serve_fresh_100k (pure overhead)"),
    ("cache.evictions", "count", "lower", "qps @ serve_hot_20k"),
    ("cache.key_us", "us", "lower", "qps, p50_ms @ serve_hot_20k"),
    ("serve.protocol.parse_us", "us", "lower",
     "qps, p50_ms @ serve_hot_20k; <1% of server CPU @ serve_fresh_100k"),
    ("serve.protocol.render_us", "us", "lower",
     "qps, p50_ms @ serve_hot_20k"),
    ("serve.dispatcher.batch_size_mean", "count", "higher",
     "qps @ serve_fresh_100k"),
    ("serve.server.handle_p50_ms", "ms", "lower",
     "p50_ms @ both serve workloads"),
    ("serve.server.cpu_ms_per_query", "ms", "lower",
     "qps @ both serve workloads"),
    ("serve.server.cpu_util", "share", "lower",
     "headroom: qps is CPU-bound near 1"),
    ("serve.http_floor_ms", "ms", "lower", "p50_ms @ serve_hot_20k"),
    ("serve.residual_ms", "ms", "lower",
     "p50_ms @ both serve workloads: batch window, queueing, event loop"),
    ("serve.first_request_ms", "ms", "lower", "setup_s @ serve workloads"),
    ("cli.serve_boot_ms", "ms", "lower",
     "setup_s @ serve and cluster workloads"),
    ("cluster.hop_overhead_x", "x", "lower",
     "qps, p50_ms @ cluster_batch_40k"),
    ("cluster.payload_bytes_per_row", "B", "lower",
     "qps, p50_ms @ cluster_batch_40k"),
    ("cluster.shard_cpu_ms_per_row", "ms", "lower",
     "qps @ cluster_batch_40k"),
    ("cluster.coordinator_cpu_ms_per_row", "ms", "lower",
     "qps, p50_ms @ cluster_batch_40k"),
    ("cluster.parallelism_x", "x", "higher", "qps @ cluster_batch_40k"),
    ("client.p99_ms", "ms", "lower", "tail beyond p95_ms @ all"),
    ("client.max_ms", "ms", "lower", "tail beyond p95_ms @ all"),
    ("client.cpu_util", "share", "lower",
     "validity: >= 0.5 means the generator is the bottleneck"),
    ("trace.overhead_share", "share", "lower",
     "validity of the traced run's numbers"),
]

UNITS = {name: unit for name, unit, *_rest in END_TO_END + PER_LAYER}


def nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a
    share ``q`` of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values) -> float:
    return float(statistics.median(values))


def as_metrics(values: dict[str, float]) -> dict[str, dict]:
    """``{name: value}`` -> the ``{"value", "unit"}`` shape the driver
    reads; a value that is not a finite number is a bug in the run."""
    out = {}
    for name, value in values.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {name} is not a finite number: "
                             f"{value!r}")
        out[name] = {"value": value, "unit": UNITS[name]}
    return out
