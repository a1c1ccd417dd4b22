"""The four workloads.

Each one sets the program up in child processes once, warms it, then
answers ``round()`` calls: a fixed count of closed-loop operations whose
wall time, latencies and wrong answers come back as a :class:`Round`.
The runner (``run.py``) decides how many rounds fit in the time it was
given and takes the median over them.

The corpora and the graded query sample are fixed datasets (a constant
generator seed, like the named ``cancerkg`` corpus): quality metrics
then repeat exactly from run to run and a change of 0 is the only one
that passes.  ``--seed`` drives every request and op stream; the
program only ever sees the generated inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

import verify
from client import Connection, encode_query, run_round
from metrics import median, nearest_rank
from procs import (Children, Server, Worker, cpu_seconds, own_cpu_seconds,
                   peak_rss_mb)
from tracing import Tracer, durations_us

clock = time.perf_counter
DIM = 64
K = verify.K
TRACED_ROUNDS = 2
MB = 1024.0 * 1024.0
CORPUS_SEED = 2025

#: Rounds are sized to take about 3 s each on the box this was built on
#: and hold at least 200 timed samples (>= 10 beyond the 95th).
SCALES = {
    "full": {
        # The 256 graded queries are warm-up enough.
        "serve_fresh_100k": dict(n=100_000, clusters=2000, warmup=0,
                                 per_round=360, replay=150),
        "serve_hot_20k": dict(n=20_000, clusters=400, pool=4096, warmup=3000,
                              per_round=4500, replay=150),
        "cluster_batch_40k": dict(n=40_000, clusters=800, warmup=16,
                                  per_round=220),
        "ingest_mixed": dict(n_base=64, warmup=100, per_round=540,
                             max_rounds=11),
    },
    "tiny": {
        "serve_fresh_100k": dict(n=3000, clusters=60, warmup=8,
                                 per_round=64, replay=16),
        "serve_hot_20k": dict(n=2000, clusters=40, pool=128, warmup=64,
                              per_round=256, replay=16),
        "cluster_batch_40k": dict(n=2000, clusters=40, warmup=2,
                                  per_round=8),
        "ingest_mixed": dict(n_base=12, warmup=20, per_round=40,
                             max_rounds=5),
    },
}
#: Per scale: client connections (one on tiny, so arrival order and
#: with it the cache's hit counts repeat exactly), size of the graded
#: query sample, and cold opens timed before every round (three: 21 or
#: more in a run of seven rounds).
SCALE_WIDE = {"full": dict(connections=2, graded=256, opens=3),
              "tiny": dict(connections=1, graded=32, opens=1)}
#: Noise around a planted centroid, chosen so map_at_10 lands near 0.8.
SIGMA = 0.8


@dataclass
class Round:
    wall_s: float
    latencies: list[float]
    units: int          # query rows / lifecycle ops attempted
    failed: int         # of those, answered wrongly or not at all
    cpu: dict = field(default_factory=dict)   # CPU seconds by process role


def zipf_ids(rng, pool: int, length: int, s: float = 1.1) -> np.ndarray:
    weights = 1.0 / np.arange(1, pool + 1) ** s
    return rng.choice(pool, size=length, p=weights / weights.sum())


class Workload:
    """Template: ``prepare`` and ``setup`` once (together they are
    ``setup_s``), ``warmup``, then ``before_round`` + ``round`` × n,
    ``finish``."""

    name = ""

    def __init__(self, seed: int, scale: str, tmp: Path, children: Children):
        self.p = {**SCALE_WIDE[scale], **SCALES[scale][self.name]}
        number = sorted(SCALES["full"]).index(self.name)
        self.rng = np.random.default_rng([seed, number])
        self.corpus_rng = np.random.default_rng([CORPUS_SEED, number])
        self.tmp = tmp
        self.worker = Worker(children)
        self.children = children
        self.built: dict = {}
        self.opens_ms: list[float] = []
        self.layer: dict[str, float] = {}
        self.mismatches = 0

    # -- overridden ------------------------------------------------------
    def prepare(self) -> None: ...
    def setup(self) -> None: ...
    def open_path(self) -> str: ...
    def build_layers(self) -> None: ...
    def warmup(self) -> None: ...
    def round(self, tracer: Tracer | None = None) -> Round | None: ...
    def finish(self) -> dict: ...
    def trace_layers(self, tracer: Tracer, p50_ms: float) -> None: ...
    def server_layers(self, rounds: list) -> None: ...
    def tested_pids(self) -> list[int]: ...
    def teardown(self) -> None: ...

    # -- shared ----------------------------------------------------------
    def before_round(self, number: int) -> None:
        """Outside every round's clock, with the servers idle: a few
        cold opens of the saved layout.  Spread over the run like this,
        their median sees the same mix of fast and slow seconds the
        rounds do."""
        self.opens_ms += self.worker.call("open_times_ms",
                                          path=self.open_path(),
                                          repeats=self.p["opens"])

    def shared_metrics(self) -> dict:
        return {
            "disk_mb": self.built["disk_bytes"] / MB,
            "rss_mb": sum(peak_rss_mb(pid) for pid in self.tested_pids()),
        }


class VectorWorkload(Workload):
    """Shared by the three synthetic workloads: a planted-cluster
    corpus (centroid + sigma * noise, label = cluster) saved by the
    worker child, a fixed graded query sample sent once before the
    warm-up, and offline reference answers."""

    n_shards = 1

    def prepare(self) -> None:
        p, rng = self.p, self.corpus_rng
        self.centroids = rng.standard_normal((p["clusters"], DIM))
        self.labels = rng.integers(0, p["clusters"], p["n"])
        self.vectors = rng.standard_normal((p["n"], DIM))
        self.vectors *= SIGMA
        self.vectors += self.centroids[self.labels]
        self.raw = self.tmp / "raw.npy"
        np.save(self.raw, self.vectors)
        self.graded_labels, self.graded = self.make_queries(rng, p["graded"])
        self.graded_rankings: list = []
        self.queries: list[np.ndarray] = []     # by query id
        self.stream: list[int] = []             # query id by position
        self.sampled: list[tuple[int, list]] = []   # (query id, ranking)

    def graded_ids(self) -> np.ndarray:
        """The graded sample as the stream's first queries."""
        first = len(self.queries)
        self.queries.extend(self.graded)
        return np.arange(first, first + len(self.graded))

    def make_queries(self, rng, count: int) -> tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, len(self.centroids), count)
        noise = rng.standard_normal((count, DIM))
        return labels, self.centroids[labels] + SIGMA * noise

    def build(self) -> None:
        self.built = self.worker.call("build_layout", raw=str(self.raw),
                                      out=str(self.tmp / "layout"),
                                      n_shards=self.n_shards)
        self.layout = self.built["path"]

    def open_path(self) -> str:
        return self.layout

    def build_layers(self) -> None:
        built = self.built
        self.layer.update({
            "index.build_vectors_per_s":
                built["n"] / (built["add_batch_s"] + built["save_s"]),
            "index.add_batch_vectors_per_s": built["n"] / built["add_batch_s"],
            "index.save_mb_per_s":
                built["disk_bytes"] / MB / built["save_s"],
        })

    def offline(self, queries: np.ndarray) -> list:
        return self.worker.call("offline_rankings", path=self.layout,
                                queries=queries, k=K)

    def note(self, query_ids, rankings) -> None:
        """Keep every ``SAMPLE_EVERY``-th answer of the stream, warm-up
        included, for the offline comparison."""
        first = len(self.stream)
        self.stream.extend(int(q) for q in query_ids)
        for offset, (qid, ranking) in enumerate(zip(query_ids, rankings)):
            if (first + offset) % verify.SAMPLE_EVERY == 0 and ranking:
                self.sampled.append((int(qid), ranking))

    def finish(self) -> dict:
        """Offline comparison of the sampled answers, then quality of
        the graded ones."""
        ids = sorted({qid for qid, _ranking in self.sampled})
        expected = dict(zip(ids, self.offline(
            np.stack([self.queries[qid] for qid in ids]))))
        self.mismatches += verify.count_mismatches(
            [ranking for _qid, ranking in self.sampled],
            [expected[qid] for qid, _ranking in self.sampled])
        answered = [i for i, ranking in enumerate(self.graded_rankings)
                    if ranking]
        out = verify.quality(
            [self.graded_rankings[i] for i in answered],
            self.graded_labels[answered], self.labels,
            verify.exact_top_k(self.vectors, self.graded[answered]))
        out.update(self.shared_metrics())
        return out


class ServeWorkload(VectorWorkload):
    """Single-vector ``POST /query`` against ``repro.cli serve`` with
    all defaults over keep-alive connections."""

    def prepare(self) -> None:
        self.server: Server | None = None
        self.connections: list[Connection] = []
        self.encoded: dict[int, bytes] = {}
        super().prepare()

    def next_ids(self, count: int) -> np.ndarray:
        """Query ids of the next ``count`` requests of the stream."""
        raise NotImplementedError

    def request(self, qid: int) -> bytes:
        if qid not in self.encoded:
            self.encoded[qid] = encode_query(self.queries[qid], K)
        return self.encoded[qid]

    def tested_pids(self) -> list[int]:
        return [self.server.pid]

    def setup(self) -> None:
        self.build()
        self.server = Server(self.children,
                             ["serve", self.layout, "--port", "0"],
                             self.tmp / "serve.stderr")
        self.layer["cli.serve_boot_ms"] = self.server.boot_ms
        self.connections = [Connection(self.server.port)
                            for _ in range(self.p["connections"])]
        health = self.connections[0].get_json("/healthz")
        if health["entries"] != self.p["n"]:
            raise RuntimeError(f"server holds {health['entries']} entries, "
                               f"built {self.p['n']}")

    def teardown(self) -> None:
        for connection in self.connections:
            connection.close()
        self.connections = []
        if self.server is not None:
            self.server.stop()
            self.server = None

    def warmup(self) -> None:
        """The graded sample (the server's first requests), then the
        head of the stream."""
        graded = self.exchange(self.graded_ids())
        self.layer["serve.first_request_ms"] = graded.latencies[0] * 1000.0
        self.graded_rankings = self.rankings
        if self.p["warmup"]:
            self.exchange(self.next_ids(self.p["warmup"]))
        self.stats_before = self.stats()

    def stats(self) -> dict:
        return self.connections[0].get_json("/stats")

    def round(self, tracer: Tracer | None = None) -> Round:
        return self.exchange(self.next_ids(self.p["per_round"]), tracer)

    def exchange(self, ids: np.ndarray, tracer: Tracer | None = None) -> Round:
        """One closed-loop pass over the queries ``ids``; the parsed
        answers stay in ``self.rankings``."""
        requests = [self.request(q) for q in ids]
        server_cpu, own_cpu = cpu_seconds(self.server.pid), own_cpu_seconds()
        wall, latencies, replies = run_round(self.connections, requests,
                                             tracer, len(self.stream))
        cpu = {"server": cpu_seconds(self.server.pid) - server_cpu,
               "client": own_cpu_seconds() - own_cpu}
        parsed: dict[bytes, list | None] = {}
        rankings = []
        for status, body in replies:
            if body not in parsed:
                parsed[body] = verify.parse_reply(status, body)
            rankings.append(parsed[body])
        self.note(ids, rankings)
        self.rankings = rankings
        return Round(wall, latencies, len(ids),
                     sum(r is None for r in rankings), cpu)

    def server_layers(self, rounds: list[Round]) -> None:
        """What ``GET /stats`` and ``/proc`` say about the measured
        rounds (cheap, taken outside any round's clock)."""
        after, before = self.stats(), self.stats_before
        cache_after = after["indexes"]["default"]["cache"]
        cache_before = before["indexes"]["default"]["cache"]
        delta = {name: cache_after[name] - cache_before[name] for name in
                 ("exact_hits", "semantic_hits", "misses", "evictions")}
        served = (delta["exact_hits"] + delta["semantic_hits"]
                  + delta["misses"])
        queries = after["queries_total"] - before["queries_total"]
        wall = sum(r.wall_s for r in rounds)
        server_cpu = sum(r.cpu["server"] for r in rounds)
        self.layer.update({
            "cache.exact_hit_share": delta["exact_hits"] / served,
            "cache.semantic_hit_share": delta["semantic_hits"] / served,
            "cache.miss_share": delta["misses"] / served,
            "cache.evictions": delta["evictions"],
            "serve.dispatcher.batch_size_mean": after["batch"]["mean_size"],
            "serve.server.handle_p50_ms": after["latency_ms"]["p50"],
            "serve.server.cpu_ms_per_query": server_cpu * 1000.0 / queries,
            "serve.server.cpu_util": server_cpu / wall,
        })
        floor = []
        for _ in range(50):
            started = clock()
            self.connections[0].get_json("/healthz")
            floor.append((clock() - started) * 1000.0)
        self.layer["serve.http_floor_ms"] = median(floor)

    def trace_layers(self, tracer: Tracer, p50_ms: float) -> None:
        """The worker child replays the layer calls of the traced
        rounds' first requests, then times the index layer alone."""
        p = self.p
        first = len(self.stream) - TRACED_ROUNDS * p["per_round"]
        positions = [first + r * p["per_round"] + i
                     for r in range(TRACED_ROUNDS) for i in range(p["replay"])]
        ids = [self.stream[position] for position in positions]
        bodies = [self.request(q).split(b"\r\n\r\n", 1)[1] for q in ids]
        replay = self.worker.call("replay_served", path=self.layout,
                                  bodies=bodies, positions=positions)
        tracer.extend(replay["spans"])
        self.layer.update(replay["layer"])
        self.layer.update(self.worker.call(
            "index_micro", path=self.layout, k=K,
            queries=np.stack([self.queries[q] for q in ids[:p["replay"]]])))
        self.layer["serve.residual_ms"] = self.residual_ms(p50_ms)

    def residual_ms(self, p50_ms: float) -> float:
        """Client p50 minus every layer the benchmark can time alone;
        what is left is batch window, queueing and the event loop.  A
        median request that is an exact cache hit never reaches
        ``query_many``."""
        layer = self.layer
        kernel = (0.0 if layer["cache.exact_hit_share"] > 0.5
                  else layer["index.query_many_b1_us"])
        return p50_ms - layer["serve.http_floor_ms"] - (
            layer["serve.protocol.parse_us"] + layer["cache.key_us"]
            + kernel + layer["serve.protocol.render_us"]) / 1000.0


class ServeFresh(ServeWorkload):
    name = "serve_fresh_100k"

    def next_ids(self, count: int) -> np.ndarray:
        first = len(self.queries)
        self.queries.extend(self.make_queries(self.rng, count)[1])
        return np.arange(first, first + count)


class ServeHot(ServeWorkload):
    name = "serve_hot_20k"

    def prepare(self) -> None:
        super().prepare()
        self.queries = list(self.make_queries(self.rng, self.p["pool"])[1])

    def next_ids(self, count: int) -> np.ndarray:
        return zipf_ids(self.rng, self.p["pool"], count)


class ClusterBatch(VectorWorkload):
    """One caller in the worker child holding the coordinator; two
    ``serve-shard`` processes.  No front HTTP server: with the parent
    idle that is three busy processes on two cores already."""

    name = "cluster_batch_40k"
    n_shards = 4
    n_servers = 2
    rows = 8

    def prepare(self) -> None:
        self.servers: list[Server] = []
        super().prepare()

    def tested_pids(self) -> list[int]:
        return [server.pid for server in self.servers] + [self.worker.pid]

    def setup(self) -> None:
        self.build()
        slices = self.worker.call("split_for_servers", path=self.layout,
                                  out=str(self.tmp / "split"),
                                  n_servers=self.n_servers)
        self.servers = [
            Server(self.children, ["serve-shard", path, "--port", "0"],
                   self.tmp / f"shard-{i}.stderr")
            for i, path in enumerate(slices)]
        self.ports = [server.port for server in self.servers]
        self.worker.call("cluster_connect", ports=self.ports,
                         layout=self.layout)
        self.layer["cli.serve_boot_ms"] = median(
            server.boot_ms for server in self.servers)

    def teardown(self) -> None:
        self.worker.call("cluster_close")
        for server in self.servers:
            server.stop()
        self.servers = []

    def warmup(self) -> None:
        self.exchange(self.graded_ids())
        self.graded_rankings = self.rankings
        self.exchange(self.next_ids(self.p["warmup"]))

    def next_ids(self, calls: int) -> np.ndarray:
        first = len(self.queries)
        self.queries.extend(self.make_queries(self.rng,
                                              calls * self.rows)[1])
        return np.arange(first, len(self.queries))

    def round(self, tracer: Tracer | None = None) -> Round:
        return self.exchange(self.next_ids(self.p["per_round"]), tracer)

    def exchange(self, ids: np.ndarray, tracer: Tracer | None = None) -> Round:
        """``query_many`` calls of ``rows`` consecutive queries each,
        one after the other, made by the worker child."""
        batches = np.stack([self.queries[q] for q in ids]).reshape(
            -1, self.rows, DIM)
        shard_cpu = sum(cpu_seconds(server.pid) for server in self.servers)
        own_cpu = own_cpu_seconds()
        result = self.worker.call("cluster_round", batches=batches, k=K,
                                  traced=tracer is not None,
                                  first_id=int(ids[0]) // self.rows)
        cpu = {"shards": sum(cpu_seconds(server.pid)
                             for server in self.servers) - shard_cpu,
               "coordinator": result["cpu_s"],
               "client": own_cpu_seconds() - own_cpu}
        if tracer is not None:
            tracer.extend(result["spans"])
        self.rankings = [ranking if verify.well_formed(ranking) else None
                         for call in result["rankings"] for ranking in call]
        self.note(ids, self.rankings)
        return Round(result["wall_s"], result["latencies"], len(ids),
                     sum(r is None for r in self.rankings), cpu)

    def server_layers(self, rounds: list[Round]) -> None:
        rows = sum(r.units for r in rounds)
        wall = sum(r.wall_s for r in rounds)
        shard_cpu = sum(r.cpu["shards"] for r in rounds)
        self.layer.update({
            "cluster.shard_cpu_ms_per_row": shard_cpu * 1000.0 / rows,
            "cluster.coordinator_cpu_ms_per_row":
                sum(r.cpu["coordinator"] for r in rounds) * 1000.0 / rows,
            "cluster.parallelism_x": shard_cpu / wall,
        })

    def trace_layers(self, tracer: Tracer, p50_ms: float) -> None:
        sample = np.stack(self.queries[-(self.p["per_round"] * self.rows // 4):])
        self.layer.update(self.worker.call(
            "index_micro", path=self.layout, k=K, queries=sample[:64]))
        self.layer.update(self.worker.call(
            "cluster_micro", k=K, ports=self.ports,
            batches=sample.reshape(-1, self.rows, DIM)))
        remote_us = median(durations_us(tracer.spans,
                                        "cluster.remote.query_many"))
        self.layer.update({
            "index.sharded.merge_us": median(
                durations_us(tracer.spans, "index.sharded.merge")),
            "cluster.hop_overhead_x": (
                remote_us / self.rows
                / self.layer["index.sharded.query_many_b8_us"]),
        })


class IngestMixed(Workload):
    """Writes beside reads on the paper's own encoder and indexes, all
    inside the worker child through the public API.

    The corpus is the named dataset (``cancerkg``, its generator's
    default seed) and the base tables are its first ``n_base``;
    ``--seed`` draws the order never-seen tables arrive in and the op
    stream.  Quality is graded on the freshly built base layouts, before
    the op stream changes them: one ``query_table`` and one
    ``query_column`` per queried base table.

    Per 20 ops: 14 ``query_table``/``query_column`` on base tables, 3
    adds of never-seen tables (encode + add to both indexes) and 3
    removes of the tables added one cycle earlier — so the indexes stay
    the same size from round to round — plus one ``compact`` + ``save``
    after every 200 ops."""

    name = "ingest_mixed"
    CYCLE = 20
    QUERIES, ADDS = 14, 3
    COMPACT_EVERY = 200
    QUERY_TABLES = 48

    def prepare(self) -> None:
        p = self.p
        ops = p["warmup"] + (p["max_rounds"] + TRACED_ROUNDS) * p["per_round"]
        # Ten more than any run can add: ``trace_layers`` encodes those.
        self.n_fresh = self.ADDS * (ops // self.CYCLE + 1) + 10
        described = self.worker.call(
            "ingest_setup", n_base=p["n_base"], n_fresh=self.n_fresh,
            out=str(self.tmp / "ingest"))
        self.queryable = min(self.QUERY_TABLES, p["n_base"] - self.ADDS)
        self.ops = self.make_ops(described["n_cols"])
        self.graded: list[dict] = []
        self.by_kind: dict[str, list[float]] = {}
        self.store = {"hits": 0, "misses": 0}

    def make_ops(self, n_cols: list[int]):
        """The op stream, cycle after cycle, until the never-seen
        tables run out."""
        p = self.p
        self.arrival = arrival = (p["n_base"]
                                  + self.rng.permutation(self.n_fresh))
        tables = self.query_tables()
        # Cycle 0 removes the last base tables, which no query uses.
        fresh = [p["n_base"] - 1 - i for i in range(self.ADDS)]
        for cycle in range((self.n_fresh - 10) // self.ADDS):
            stale = fresh
            fresh = [int(t) for t in
                     arrival[cycle * self.ADDS:(cycle + 1) * self.ADDS]]
            block: list[tuple] = []
            for i in range(self.QUERIES):
                table = next(tables)
                if i % 2 == 0:
                    block.append(("query_table", table))
                else:
                    block.append(("query_column", table,
                                  int(self.rng.integers(n_cols[table]))))
            block += [("add", f) for f in fresh]
            block += [("remove", s) for s in stale]
            yield from (block[i] for i in self.rng.permutation(len(block)))
            if (cycle + 1) % (self.COMPACT_EVERY // self.CYCLE) == 0:
                yield ("compact_save",)

    def query_tables(self):
        """Base tables to query, pass after pass in a fresh seeded
        order, each once per kind of query."""
        while True:
            for table in self.rng.permutation(self.queryable):
                yield int(table)
                yield int(table)

    def tested_pids(self) -> list[int]:
        return [self.worker.pid]

    def open_path(self) -> str:
        return self.built["paths"][0]

    def setup(self) -> None:
        self.built = self.worker.call("ingest_build")

    def warmup(self) -> None:
        self.graded = self.worker.call("ingest_grade",
                                       tables=list(range(self.queryable)))
        self.mismatches += sum(not answer["ok"] for answer in self.graded)
        self.round(count=self.p["warmup"])
        self.by_kind.clear()
        self.store = {"hits": 0, "misses": 0}

    def round(self, tracer: Tracer | None = None,
              count: int | None = None) -> Round | None:
        count = count or self.p["per_round"]
        ops = list(islice(self.ops, count))
        if len(ops) < count:        # the never-seen tables ran out
            return None
        own_cpu = own_cpu_seconds()
        result = self.worker.call("ingest_round", ops=ops,
                                  traced=tracer is not None)
        if tracer is not None:
            tracer.extend(result["spans"])
        for op, latency in zip(ops, result["latencies"]):
            self.by_kind.setdefault(op[0], []).append(latency * 1000.0)
        self.store["hits"] += result["store_hits"]
        self.store["misses"] += result["store_misses"]
        return Round(result["wall_s"], result["latencies"], len(ops),
                     result["wrong"],
                     {"client": own_cpu_seconds() - own_cpu})

    def finish(self) -> dict:
        from repro.eval.metrics import (mean_average_precision,
                                        mean_reciprocal_rank)

        by_topic = [answer for answer in self.graded if "relevance" in answer]
        relevance = [answer["relevance"] for answer in by_topic]
        return {
            "recall_at_10": float(np.mean([answer["recall"]
                                           for answer in self.graded])),
            "map_at_10": mean_average_precision(
                relevance, K, [answer["n_relevant"] for answer in by_topic]),
            "mrr_at_10": mean_reciprocal_rank(relevance, K),
            **self.shared_metrics(),
        }

    def build_layers(self) -> None:
        built = self.built
        self.layer.update({
            "index.build_vectors_per_s": built["n_vectors"] / (
                built["encode_s"] + built["build_s"] + built["save_s"]),
            "index.store.encode_tables_per_s":
                built["tables_encoded"] / built["encode_s"],
            "index.store.sequences_per_batch": built["sequences_per_batch"],
            "index.add_batch_vectors_per_s":
                built["n_vectors"] / built["build_s"],
            "index.save_mb_per_s":
                built["disk_bytes"] / MB / built["save_s"],
            "index.open_eager_ms": built["open_s"] * 1000.0 / 2,
        })

    def server_layers(self, rounds: list[Round]) -> None:
        lookups = self.store["hits"] + self.store["misses"]
        self.layer.update({
            "index.store.cache_hit_share": self.store["hits"] / lookups,
            "index.add_ms": median(self.by_kind["add"]),
            "index.remove_ms": median(self.by_kind["remove"]),
        })
        if "compact_save" in self.by_kind:
            self.layer["index.compact_ms"] = median(
                self.by_kind["compact_save"])

    def trace_layers(self, tracer: Tracer, p50_ms: float) -> None:
        tracer.extend(self.built["spans"])
        self.layer.update(self.worker.call(
            "ingest_micro", fresh=[int(t) for t in self.arrival[-10:]]))


WORKLOADS = {cls.name: cls for cls in (ServeFresh, ServeHot, ClusterBatch,
                                       IngestMixed)}


def summarize(rounds: list[Round]) -> dict:
    """The median over rounds of each round's throughput and
    nearest-rank latency percentiles, with the per-round values kept: a
    noisy-neighbour burst spoils one round, not the run."""
    qps = [(r.units - r.failed) / r.wall_s for r in rounds]
    p50 = [nearest_rank(r.latencies, 0.50) * 1000.0 for r in rounds]
    p95 = [nearest_rank(r.latencies, 0.95) * 1000.0 for r in rounds]
    every = [x for r in rounds for x in r.latencies]
    return {
        "qps": median(qps), "p50_ms": median(p50), "p95_ms": median(p95),
        "per_round": {"qps": qps, "p50_ms": p50, "p95_ms": p95,
                      "wall_s": [r.wall_s for r in rounds]},
        "samples_per_round": len(rounds[0].latencies),
        "attempted": sum(r.units for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "client.p99_ms": nearest_rank(every, 0.99) * 1000.0,
        "client.max_ms": max(every) * 1000.0,
        "client.cpu_util": (sum(r.cpu["client"] for r in rounds)
                            / sum(r.wall_s for r in rounds)),
    }
