"""The worker child: every library call the benchmark makes into the
program (``repro.index``, ``repro.retrieval``, ``repro.cache``,
``repro.serve.protocol``, ``repro.cluster``, ``repro.core``) runs here,
so the parent stays a pure load generator and the child's CPU and peak
memory can be read from ``/proc`` as the program's own.

Run as a script it serves ``(op, kwargs)`` requests pickled on stdin
and answers ``("ok", value)`` / ``("error", traceback)`` on stdout.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from procs import own_cpu_seconds
from tracing import Tracer, durations_us

clock = time.perf_counter
OFFLINE_BATCH = 64


class State:
    """What the child keeps between calls."""

    def __init__(self):
        self.offline: dict[str, object] = {}
        self.remote = None
        self.local = None
        self.ingest: Ingest | None = None


def _quiesce(state: State) -> None:
    """Drop the reference indexes before timing an allocation-heavy
    call: every object this child keeps alive is traversed by the
    cyclic collector that the call's allocations trigger (a second
    100k-entry index alive made ``add_batch`` read 0.5 s instead of
    0.28 s)."""
    state.offline.clear()
    gc.collect()


def _tree_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _pairs(hits) -> list[tuple[str, float]]:
    return [(hit.key, hit.score) for hit in hits]


def _median(values) -> float:
    return float(statistics.median(values))


# ----------------------------------------------------------------------
# Vector layouts (the three synthetic workloads)
# ----------------------------------------------------------------------
def build_layout(state: State, raw: str, out: str, n_shards: int) -> dict:
    """Raw matrix -> searchable saved layout: ``add_batch`` then
    ``save``, timed separately."""
    from repro.index import IndexSpec, ShardedIndex, VectorIndex, save_index

    _quiesce(state)
    vectors = np.load(raw)
    keys = [f"k{i:06d}" for i in range(len(vectors))]
    started = clock()
    if n_shards == 1:
        index = VectorIndex(dim=vectors.shape[1], seed=0)
    else:
        index = ShardedIndex.create(
            IndexSpec(kind="vector", dim=vectors.shape[1], seed=0), n_shards)
    index.add_batch(keys, vectors)
    added = clock()
    path = save_index(index, out)
    saved = clock()
    return {"path": str(path), "n": len(vectors),
            "add_batch_s": added - started, "save_s": saved - added,
            "disk_bytes": _tree_bytes(Path(path))}


def split_for_servers(state: State, path: str, out: str,
                      n_servers: int) -> list[str]:
    from repro.cluster import split_layout

    return [str(p) for p in split_layout(path, out, n_servers)]


def _offline_index(state: State, path: str):
    from repro.index import open_index

    if path not in state.offline:
        state.offline[path] = open_index(path)
    return state.offline[path]


def offline_rankings(state: State, path: str, queries: np.ndarray,
                     k: int) -> list[list[tuple[str, float]]]:
    """The reference answers: ``open_index(path).query_many``."""
    index = _offline_index(state, path)
    out = []
    for start in range(0, len(queries), OFFLINE_BATCH):
        out.extend(_pairs(hits) for hits in
                   index.query_many(queries[start:start + OFFLINE_BATCH], k=k))
    return out


def open_times_ms(state: State, path: str, repeats: int,
                  mmap: bool = True) -> list[float]:
    from repro.index import open_index

    _quiesce(state)
    out = []
    for _ in range(repeats):
        started = clock()
        len(open_index(path, mmap=mmap))
        out.append((clock() - started) * 1000.0)
    return out


def replay_served(state: State, path: str, bodies: list[bytes],
                  positions: list[int]) -> dict:
    """The layer calls a served single-vector query makes, in served
    order, one span each, over the same layout and the same request
    bodies the server saw.  ``index.query_many`` hashes and probes
    again inside, so rank = query_many - hash - probe."""
    from repro.cache.result_cache import exact_key
    from repro.index import open_index
    from repro.serve.protocol import (format_hits, json_body,
                                      parse_query_payload, render_response)

    index = open_index(path, mmap=True)
    tracer = Tracer()
    n_candidates, n_short = [], 0
    for position, body in zip(positions, bodies):
        rid = f"r{position}"
        with tracer.span("replay.request", rid) as root:
            with tracer.span("serve.protocol.parse", rid, root):
                matrix, k, _excludes, _single = parse_query_payload(
                    body, index.dim)
            with tracer.span("cache.key", rid, root):
                exact_key(matrix[0], k, index.kind, None, index.generation)
            with tracer.span("retrieval.lsh.hash", rid, root):
                keys = index.band_key_tuples(matrix)
            with tracer.span("retrieval.lsh.probe", rid, root):
                candidates = index.lsh.candidates_for_keys(keys)
            with tracer.span("index.query_many", rid, root):
                results = index.query_many(matrix, k=k)
            with tracer.span("serve.protocol.render", rid, root):
                render_response(200, json_body(
                    {"hits": format_hits(results[0])}))
        n_candidates.append(len(candidates[0]))
        n_short += len(candidates[0]) < k
    spans = tracer.spans
    us = {name: _median(durations_us(spans, name)) for name in (
        "serve.protocol.parse", "cache.key", "retrieval.lsh.hash",
        "retrieval.lsh.probe", "index.query_many", "serve.protocol.render")}
    return {"spans": spans, "layer": {
        "serve.protocol.parse_us": us["serve.protocol.parse"],
        "serve.protocol.render_us": us["serve.protocol.render"],
        "cache.key_us": us["cache.key"],
        "retrieval.lsh.hash_us": us["retrieval.lsh.hash"],
        "retrieval.lsh.probe_us": us["retrieval.lsh.probe"],
        "retrieval.lsh.rank_us": (us["index.query_many"]
                                  - us["retrieval.lsh.hash"]
                                  - us["retrieval.lsh.probe"]),
        "retrieval.lsh.candidates_per_query": float(np.mean(n_candidates)),
        "index.brute_fallback_share": n_short / len(bodies),
    }}


def _row_us(index, queries: np.ndarray, k: int, batch: int,
            jobs: int | None = None) -> float:
    """Median microseconds per query row of ``query_many`` in batches
    of ``batch`` rows."""
    took = []
    for start in range(0, len(queries) // batch * batch, batch):
        started = clock()
        index.query_many(queries[start:start + batch], k=k, jobs=jobs)
        took.append((clock() - started) * 1e6 / batch)
    return _median(took)


def index_micro(state: State, path: str, queries: np.ndarray,
                k: int) -> dict:
    """Timings of the index layer alone over the workload's layout,
    keyed by per-layer metric name: eager opens, single and batch-of-8
    queries, and the same queries on a quantized copy (what
    ``--quantized`` would change)."""
    from repro.index import open_index
    from repro.retrieval.quantized import approx_scores, quantize_rows

    # Opens first: nothing of this call's own is alive yet.
    out = {"index.open_eager_ms": _median(open_times_ms(state, path, 5,
                                                        mmap=False))}
    index = open_index(path)
    out["index.query_many_b1_us"] = _row_us(index, queries, k, batch=1)
    out["index.query_many_b8_us"] = _row_us(index, queries, k, batch=8)
    index.quantize()
    index.enable_quantized()
    out["index.quantized.query_many_b1_us"] = _row_us(index, queries, k, batch=1)
    shards = getattr(index, "shards", [index])
    sidecar = sum(array.nbytes for shard in shards
                  for array in shard.lsh.quantized_arrays())
    full = sum(shard.lsh.vectors().nbytes for shard in shards)
    out["index.quantized.resident_ratio"] = sidecar / full
    q8, scales, norms = shards[0].lsh.quantized_arrays()
    rows = np.arange(min(1000, len(q8)))
    query_q8 = quantize_rows(queries[:1])[0]
    approx = []
    for _ in range(50):
        started = clock()
        approx_scores(q8[rows], scales[rows], norms[rows], query_q8)
        approx.append((clock() - started) * 1e6 * 1000 / len(rows))
    out["retrieval.quantized.approx_scores_us"] = _median(approx)
    return out


# ----------------------------------------------------------------------
# cluster_batch: the caller that holds the coordinator
# ----------------------------------------------------------------------
def cluster_connect(state: State, ports: list[int], layout: str) -> None:
    from repro.cluster import RemoteShardedIndex, Topology
    from repro.index import open_index

    state.remote = RemoteShardedIndex.connect(Topology.from_addresses(
        [("127.0.0.1", port) for port in ports]))
    state.local = open_index(layout, mmap=True)


def cluster_close(state: State) -> None:
    if state.remote is not None:
        state.remote.close()
        state.remote = None


def cluster_round(state: State, batches: np.ndarray, k: int, traced: bool,
                  first_id: int) -> dict:
    """One round of ``query_many`` calls through the coordinator, one
    after the other.  Traced, each call also runs the local sharded
    ``query_many`` and one ``merge_shard_rankings`` beside it."""
    from repro.index import merge_shard_rankings

    remote, local = state.remote, state.local
    tracer = Tracer() if traced else None
    latencies, rankings = [], []
    beside = 0.0
    cpu_before = own_cpu_seconds()
    round_started = clock()
    for i, batch in enumerate(batches):
        started = clock()
        results = remote.query_many(batch, k=k)
        ended = clock()
        latencies.append(ended - started)
        rankings.append([_pairs(hits) for hits in results])
        if tracer is not None:
            rid = f"r{first_id + i}"
            root = tracer.add("cluster.call", started, 0.0, rid)
            tracer.add("cluster.remote.query_many", started, ended, rid, root)
            with tracer.span("index.sharded.query_many", rid, root):
                local.query_many(batch, k=k, jobs=1)
            partials = [shard.query_partial_many(batch[:1], k)[0][1]
                        for shard in local.shards]
            with tracer.span("index.sharded.merge", rid, root):
                merge_shard_rankings(partials, k)
            tracer.spans[root]["end"] = clock()
            beside += tracer.spans[root]["end"] - ended
    wall = clock() - round_started - beside
    return {"wall_s": wall, "latencies": latencies, "rankings": rankings,
            "cpu_s": own_cpu_seconds() - cpu_before,
            "spans": tracer.spans if tracer else []}


def cluster_micro(state: State, batches: np.ndarray, k: int,
                  ports: list[int]) -> dict:
    """Local 4-shard ``query_many`` at ``jobs=1`` and ``jobs=2``, and
    the JSON bytes one call puts on the coordinator -> shard wire."""
    import http.client

    rows = batches.reshape(-1, batches.shape[-1])
    jobs1, jobs2 = (_row_us(state.local, rows, k, batches.shape[1], jobs)
                    for jobs in (1, 2))
    body = json.dumps({"vectors": batches[0].tolist(), "k": k}).encode()
    wire = 0
    for port in ports:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request("POST", "/partial_query", body=body,
                         headers={"Content-Type": "application/json"})
            wire += len(body) + len(conn.getresponse().read())
        finally:
            conn.close()
    return {"index.sharded.query_many_b8_us": jobs1,
            "index.sharded.jobs2_speedup_x": jobs1 / jobs2,
            "cluster.payload_bytes_per_row": wire / len(batches[0])}


# ----------------------------------------------------------------------
# ingest_mixed: the paper's encoder and the index lifecycle
# ----------------------------------------------------------------------
class Ingest:
    """The write-side workload's state: corpus, embedder, the two
    reopened layouts and which tables are live in them."""

    N_SHARDS = 3
    EMBEDDER_TABLES = 48
    VARIANT = "tblcomp1"    # what TableIndex.build composes by default

    def __init__(self, n_base: int, n_fresh: int, out: str):
        from repro.core import TabBiNConfig, TabBiNEmbedder
        from repro.datasets import load_dataset

        self.tables = load_dataset("cancerkg", n_base + n_fresh)
        self.embedder, _stats = TabBiNEmbedder.build(
            self.tables[:self.EMBEDDER_TABLES], TabBiNConfig.small(),
            steps=0, vocab_size=500)
        self.n_base = n_base
        self.out = Path(out)
        self.live: set[int] = set()
        self.table_index = self.column_index = None
        self.ops_done = 0

    def build(self) -> dict:
        """Encode the base tables, build both indexes, save them as
        sharded layouts, reopen."""
        from repro.index import (ColumnIndex, TableIndex, open_index,
                                 save_index)

        base = self.tables[:self.n_base]
        out = self.out
        store = self.embedder.store
        tracer = Tracer()
        rid = "build"
        with tracer.span("ingest.build", rid) as root:
            with tracer.span("index.store.encode_corpus", rid, root):
                store.encode_corpus(base)
            with tracer.span("index.build", rid, root):
                tables = TableIndex.build_sharded(self.embedder, base,
                                                  shards=self.N_SHARDS)
                columns = ColumnIndex.build_sharded(self.embedder, base,
                                                    shards=self.N_SHARDS)
            with tracer.span("index.save", rid, root):
                table_path = save_index(tables, out / "tables")
                column_path = save_index(columns, out / "columns")
            with tracer.span("index.open_index", rid, root):
                self.table_index = open_index(table_path)
                self.column_index = open_index(column_path)
        self.live = set(range(self.n_base))
        took = {span["name"]: span["end"] - span["start"]
                for span in tracer.spans}
        stats = store.stats
        return {
            "n_vectors": len(tables) + len(columns),
            "encode_s": took["index.store.encode_corpus"],
            "build_s": took["index.build"], "save_s": took["index.save"],
            "open_s": took["index.open_index"],
            "tables_encoded": len(base),
            "sequences_per_batch": stats.sequences_encoded / stats.batches,
            "disk_bytes": _tree_bytes(out / "tables")
            + _tree_bytes(out / "columns"),
            "paths": [str(table_path), str(column_path)],
            "spans": tracer.spans,
        }

    def describe(self) -> dict:
        """What the parent needs to write an op stream."""
        return {"n_cols": [t.n_cols for t in self.tables]}

    # -- lifecycle ops --------------------------------------------------
    def _query(self, op: tuple) -> tuple[list, np.ndarray, str, object]:
        from repro.index import ColumnIndex, table_fingerprint

        table = self.tables[op[1]]
        if op[0] == "query_table":
            hits = self.table_index.query_table(self.embedder, table, k=10)
            vector = self.embedder.table_embedding(table, self.VARIANT)
            return hits, vector, table_fingerprint(table), self.table_index
        hits = self.column_index.query_column(self.embedder, table, op[2],
                                              k=10)
        vector = self.embedder.column_embedding(table, op[2])
        return (hits, vector, ColumnIndex.column_key(table, op[2]),
                self.column_index)

    def _add(self, i: int) -> None:
        from repro.index import ColumnIndex, TableIndex, table_fingerprint

        table = self.tables[i]
        self.table_index.add(table_fingerprint(table),
                             self.embedder.table_embedding(table,
                                                           self.VARIANT),
                             TableIndex.table_meta(table))
        for j in range(table.n_cols):
            self.column_index.add(
                ColumnIndex.column_key(table, j),
                self.embedder.column_embedding(table, j),
                {"caption": table.caption, "col": j})
        self.live.add(i)

    def _remove(self, i: int) -> None:
        from repro.index import ColumnIndex, table_fingerprint

        table = self.tables[i]
        self.table_index.remove(table_fingerprint(table))
        for j in range(table.n_cols):
            self.column_index.remove(ColumnIndex.column_key(table, j))
        self.live.discard(i)

    def _compact_and_save(self) -> None:
        from repro.index import save_index

        self.table_index.compact()
        self.column_index.compact()
        save_index(self.table_index, self.out / "tables")
        save_index(self.column_index, self.out / "columns")

    def _check_query(self, op: tuple, hits, vector: np.ndarray,
                     own_key: str, index) -> dict:
        """Verify one answer against the index's own live vectors —
        hits are live, not the query itself, scored with the exact
        cosine and ordered — and grade it: recall against the exact
        top-10, topic relevance for table queries."""
        from repro.index import table_fingerprint

        keys = [hit.key for hit in hits]
        scores = [hit.score for hit in hits]
        items = [(key, vec) for key, vec, _meta in index.live_items()
                 if key != own_key]
        matrix = np.stack([vec for _key, vec in items])
        cosine = (matrix @ vector) / (np.linalg.norm(matrix, axis=1)
                                      * np.linalg.norm(vector))
        exact = dict(zip((key for key, _vec in items), cosine))
        ok = (len(keys) == min(10, len(items)) and len(set(keys)) == len(keys)
              and all(key in exact for key in keys)
              and all(a >= b for a, b in zip(scores, scores[1:]))
              and all(abs(exact[key] - score) < 1e-9
                      for key, score in zip(keys, scores)))
        top = sorted(exact, key=lambda key: (-exact[key], key))[:10]
        graded = {"ok": ok, "recall": len(set(top) & set(keys)) / len(top)}
        if op[0] == "query_table":
            topic = self.tables[op[1]].topic
            topic_of = {table_fingerprint(self.tables[i]): self.tables[i].topic
                        for i in self.live}
            graded["relevance"] = [topic_of[key] == topic for key in keys
                                   if key in topic_of]
            graded["n_relevant"] = sum(
                t == topic for key, t in topic_of.items() if key != own_key)
        return graded

    def grade(self, tables: list[int]) -> list[dict]:
        """The graded sample: one ``query_table`` and one
        ``query_column`` per table, checked and graded."""
        answers = []
        for i in tables:
            for op in (("query_table", i),
                       ("query_column", i, i % self.tables[i].n_cols)):
                answers.append(self._check_query(op, *self._query(op)))
        return answers

    def round(self, ops: list[tuple], traced: bool) -> dict:
        store = self.embedder.store
        tracer = Tracer() if traced else None
        latencies = []
        wrong = 0
        hits_before = store.stats.hits
        misses_before = store.stats.misses
        checking = 0.0
        round_started = clock()
        for op in ops:
            started = clock()
            if op[0] in ("query_table", "query_column"):
                answer = self._query(op)
            elif op[0] == "add":
                self._add(op[1])
            elif op[0] == "remove":
                self._remove(op[1])
            else:
                self._compact_and_save()
            ended = clock()
            latencies.append(ended - started)
            self.ops_done += 1
            if tracer is not None:
                tracer.add(f"ingest.{op[0]}", started, ended,
                           f"r{self.ops_done}")
            if op[0] in ("query_table", "query_column"):
                wrong += not self._check_query(op, *answer)["ok"]
                checking += clock() - ended
        wall = clock() - round_started - checking
        return {"wall_s": wall, "latencies": latencies, "wrong": wrong,
                "store_hits": store.stats.hits - hits_before,
                "store_misses": store.stats.misses - misses_before,
                "spans": tracer.spans if tracer else []}


def ingest_setup(state: State, n_base: int, n_fresh: int, out: str) -> dict:
    state.ingest = Ingest(n_base, n_fresh, out)
    return state.ingest.describe()


def ingest_build(state: State) -> dict:
    return state.ingest.build()


def ingest_grade(state: State, tables: list[int]) -> list[dict]:
    return state.ingest.grade(tables)


def ingest_round(state: State, ops: list[tuple], traced: bool) -> dict:
    return state.ingest.round(ops, traced)


def ingest_micro(state: State, fresh: list[int]) -> dict:
    """Encoder cost alone: ``table_embedding`` of never-seen tables."""
    ingest = state.ingest
    took = []
    for i in fresh:
        started = clock()
        ingest.embedder.table_embedding(ingest.tables[i], ingest.VARIANT)
        took.append((clock() - started) * 1000.0)
    return {"core.embed_table_ms": _median(took)}


OPS = {fn.__name__: fn for fn in (
    build_layout, split_for_servers, offline_rankings, open_times_ms,
    replay_served, index_micro, cluster_connect, cluster_close,
    cluster_round, cluster_micro, ingest_setup, ingest_build, ingest_grade,
    ingest_round, ingest_micro)}


def main() -> int:
    # The reply channel is the original stdout; anything the program
    # prints goes to stderr instead of corrupting it.
    reply = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    requests = sys.stdin.buffer
    state = State()
    try:
        while True:
            try:
                op, kwargs = pickle.load(requests)
            except EOFError:
                return 0
            try:
                answer = ("ok", OPS[op](state, **kwargs))
            except Exception:  # noqa: BLE001 - reported to the parent
                answer = ("error", traceback.format_exc())
            pickle.dump(answer, reply)
            reply.flush()
    finally:
        cluster_close(state)


if __name__ == "__main__":
    raise SystemExit(main())
