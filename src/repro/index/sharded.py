"""Sharded index: one query/lifecycle surface over many shard files.

A :class:`ShardedIndex` holds N ordinary :class:`~repro.index.index.VectorIndex`
shards that share one :class:`~repro.index.spec.IndexSpec`.  Entries are
routed by a stable hash of their key's *table fingerprint* (column keys
``fingerprint:j`` route by the fingerprint prefix, so every column of a
table lands in the table's shard) — the same partition function
``build_sharded`` uses, so incremental ``add`` and map-reduce builds
agree on ownership.

Queries fan out: :meth:`ShardedIndex.query_many` pushes a ``(Q, dim)``
query matrix through every shard's partial path
(:meth:`VectorIndex.query_partial_many` — one hashing matmul per band,
one similarity kernel call per shard), and :func:`gather_top_k` does
the rest.  That one routine is the whole gather half of every fan-out
in the repo — local shards here, shard servers behind
:class:`~repro.cluster.coordinator.RemoteShardedIndex`: it decides the
brute-force fallback that keeps a single index from silently shrinking
results *globally* — on the candidate total across all shards — and
heap-merges the per-shard rankings into a global top-k, so a sharded
query returns exactly what one big index over the same corpus would
(ties broken by key, which is content-addressed and therefore
layout-independent).  ``query_vector`` is the ``Q=1`` case.

``jobs=N`` fans the per-shard work of one call across a thread pool —
NumPy releases the GIL inside the similarity kernels, so shards
genuinely overlap — and the gather preserves shard order, so threaded
results are bit-identical to the serial fan-out.

The query path is **read-only**: no ``query_*`` method mutates shard
state, so any number of threads may query one ``ShardedIndex``
concurrently — with or without ``jobs=`` — as long as no writer
(``add``/``remove``/``compact``/``merge``/``rebalance``) runs
alongside them.  Writers are not synchronized with readers; interleave
them under an external lock if a workload needs both.  The same
read-only property is what lets ``open_index(path, mmap=True)`` back
every shard with a write-protected memory mapping (the serving
default): queries page in only the candidate rows they score, and any
accidental writeback raises instead of corrupting the layout.

Lifecycle operations dispatch to the owning shard (``remove``), sum
over shards (``compact``), or route incoming entries (``merge``, which
accepts single-file and sharded sources alike).  After skewed merges —
or to change the shard count — :meth:`rebalance` redistributes every
live entry back to its hash owner.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from ..retrieval.lsh import merge_ranked
from .index import FORMAT_VERSION, SearchHit, _check_jobs, merge_into
from .spec import IndexSpec


def shard_of(key: str, n_shards: int) -> int:
    """Owning shard for ``key`` under an ``n_shards`` layout.

    Routing hashes only the table-fingerprint prefix (the part before
    the first ``:``), so ``fp`` and ``fp:3`` co-locate; blake2b keeps
    the placement stable across processes and Python hash
    randomization.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be at least 1, got {n_shards}")
    fingerprint = key.split(":", 1)[0]
    digest = hashlib.blake2b(fingerprint.encode("utf-8"),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big") % n_shards


def merge_shard_rankings(rankings: list[list[SearchHit]],
                         k: int) -> list[SearchHit]:
    """Heap-merge per-shard hit rankings into one global top-k, deduping
    keys (a manually assembled layout may hold one key in two shards).

    ``rankings`` must arrive in shard order; the shard count is implied
    by ``len(rankings)``.
    """
    by_key: dict[str, SearchHit] = {}
    for ranking in rankings:
        for hit in ranking:
            current = by_key.get(hit.key)
            if current is None or hit.score > current.score:
                by_key[hit.key] = hit
    # Over-fetch when deduping could shrink the result: a key held by
    # two shards (manually assembled layout) must count once, without
    # costing a slot another key earned.
    merged = merge_ranked([[(hit.key, hit.score) for hit in ranking]
                           for ranking in rankings],
                          k * len(rankings))
    hits, seen = [], set()
    for key, _score in merged:
        if key not in seen:
            seen.add(key)
            hits.append(by_key[key])
        if len(hits) == k:
            break
    return hits


def gather_top_k(k: int,
                 partials: list[list[tuple[int, list[SearchHit]]]],
                 brute) -> list[list[SearchHit]]:
    """The gather half of a fan-out query, over *results* rather than
    shard objects: ``partials[s][q]`` is shard ``s``'s ``(candidate
    count, top-k hits)`` for query ``q``, in flat shard order.  A query
    whose candidate total across all shards is below ``k`` re-runs as
    brute force on every shard — ``brute(short_rows)`` returns
    ``rankings[s][i]`` for the ``i``-th short query — and every query's
    per-shard rankings then reduce through
    :func:`merge_shard_rankings`.

    The local layout passes its shards' method results and the cluster
    coordinator its shard servers' replies, so distributed rankings are
    bit-identical to local ones by construction, not by parallel
    reimplementation.
    """
    n_queries = len(partials[0])
    rankings = [[hits for _count, hits in shard] for shard in partials]
    short = [q for q in range(n_queries)
             if sum(shard[q][0] for shard in partials) < k]
    if short:
        for shard_rankings, shard_brute in zip(rankings, brute(short)):
            for q, hits in zip(short, shard_brute):
                shard_rankings[q] = hits
    return [merge_shard_rankings([shard[q] for shard in rankings], k)
            for q in range(n_queries)]


class ShardedIndex:
    """N spec-sharing shards behind the ``VectorIndex`` query/lifecycle
    surface."""

    def __init__(self, spec: IndexSpec, shards: list):
        if not shards:
            raise ValueError("a sharded index needs at least one shard")
        for position, shard in enumerate(shards):
            if shard.kind != spec.kind or shard.dim != spec.dim:
                raise ValueError(
                    f"shard {position} is ({shard.kind!r}, dim {shard.dim}), "
                    f"spec says ({spec.kind!r}, dim {spec.dim})")
            # LSH geometry must match too: the fan-out fallback decision
            # sums per-shard candidate counts, which are only comparable
            # when every shard hashes through the same hyperplanes.
            mine = (shard.n_planes, shard.n_bands, shard.seed)
            want = (spec.n_planes, spec.n_bands, spec.seed)
            if mine != want:
                raise ValueError(
                    f"shard {position} has LSH geometry "
                    f"(planes, bands, seed)={mine}, spec says {want}")
        self.spec = spec
        self.shards = list(shards)
        # Generation offset for mutations the shard counters cannot
        # express monotonically (rebalance rebuilds the shards from
        # scratch, resetting their counters) — see :attr:`generation`.
        self._generation = 0

    @classmethod
    def create(cls, spec: IndexSpec, n_shards: int) -> "ShardedIndex":
        """An empty sharded index: ``n_shards`` fresh shards of ``spec``."""
        if n_shards < 1:
            raise ValueError(f"n_shards must be at least 1, got {n_shards}")
        return cls(spec, [spec.create_index() for _ in range(n_shards)])

    # ------------------------------------------------------------------
    # Spec passthroughs (so callers treat either layout uniformly)
    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        return self.spec.kind

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def corpus(self) -> dict:
        return self.spec.corpus

    @corpus.setter
    def corpus(self, stamp: dict) -> None:
        self.spec.corpus = stamp

    @property
    def model_id(self) -> str | None:
        return self.spec.model_id

    @model_id.setter
    def model_id(self, value: str | None) -> None:
        self.spec.model_id = value

    @property
    def format_version(self) -> int:
        """The newest on-disk format version among the shards (all are
        written together, so normally they agree); the health-check
        counterpart of ``VectorIndex.format_version``."""
        return max((shard.format_version for shard in self.shards),
                   default=FORMAT_VERSION)

    def shard_sizes(self) -> list[int]:
        """Live entries per shard (skew diagnostic)."""
        return [len(shard) for shard in self.shards]

    # ------------------------------------------------------------------
    # Quantized tier (delegates to the shards)
    # ------------------------------------------------------------------
    @property
    def quantized(self) -> bool:
        """Whether *every* shard carries the int8 sidecar — a layout is
        only quantized as a whole (empty shards count: they quantize to
        empty sidecars, so skewed layouts still qualify)."""
        return all(shard.quantized for shard in self.shards)

    @property
    def use_quantized(self) -> bool:
        """Whether every shard routes queries through the prefilter."""
        return all(shard.use_quantized for shard in self.shards)

    def quantize(self) -> int:
        """(Re)build every shard's int8 sidecar; returns total rows
        quantized.  Idempotent, like the single-file version."""
        return sum(shard.quantize() for shard in self.shards)

    def enable_quantized(self, overfetch: int | None = None,
                         margin: int | None = None) -> None:
        """Opt every shard into quantized scoring (validated first, so
        a partially quantized layout fails whole rather than serving a
        mix of prefiltered and exact shards)."""
        for position, shard in enumerate(self.shards):
            if not shard.quantized:
                raise ValueError(
                    f"shard {position} has no quantized tier — build with "
                    f"`index build --quantize` or retrofit with `index "
                    f"quantize PATH`")
        for shard in self.shards:
            shard.enable_quantized(overfetch=overfetch, margin=margin)

    def disable_quantized(self) -> None:
        for shard in self.shards:
            shard.disable_quantized()

    @property
    def generation(self) -> int:
        """Monotonic mutation counter over the whole layout: the sum of
        the shard counters (every ``add``/``remove``/``compact``/
        ``merge`` dispatches to a shard, whose own generation bumps)
        plus an offset :meth:`rebalance` raises past the pre-rebalance
        total, so the value never repeats even though rebalancing
        replaces the shards with fresh ones.  The result cache folds
        this into its keys and drops everything when it changes."""
        return self._generation + sum(shard.generation
                                      for shard in self.shards)

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def _owner(self, key: str):
        return self.shards[shard_of(key, len(self.shards))]

    def _holding(self, key: str):
        """The shard that actually holds ``key`` — its hash owner in
        every layout this module writes, but a manually assembled
        directory may disagree, so fall back to scanning."""
        owner = self._owner(key)
        if key in owner:
            return owner
        for shard in self.shards:
            if shard is not owner and key in shard:
                return shard
        return None

    def add(self, key: str, vector: np.ndarray, meta: dict | None = None) -> int:
        """Route one entry to its owning shard; duplicate keys are
        no-ops *globally* — a key already held by a non-owner shard
        (manually assembled layout) is left where it is rather than
        inserted a second time.  Returns the shard-local id."""
        holder = self._holding(key)
        if holder is not None:
            return holder.add(key, vector, meta)
        return self._owner(key).add(key, vector, meta)

    def add_batch(self, keys: list[str], vectors: np.ndarray,
                  metas: list[dict] | None = None) -> list[int]:
        """Group a bulk insert per holding-or-owning shard, one
        vectorized LSH pass each.  Returns shard-local ids aligned with
        ``keys``."""
        if metas is None:
            metas = [{} for _ in keys]
        if not (len(keys) == len(vectors) == len(metas)):
            raise ValueError("keys, vectors and metas must align")
        groups: dict[int, list[int]] = {}
        for i, key in enumerate(keys):
            holder = self._holding(key)
            position = (self.shards.index(holder) if holder is not None
                        else shard_of(key, len(self.shards)))
            groups.setdefault(position, []).append(i)
        ids: list[int | None] = [None] * len(keys)
        vectors = np.asarray(vectors, float)
        for position, members in groups.items():
            shard_ids = self.shards[position].add_batch(
                [keys[i] for i in members], vectors[members],
                [metas[i] for i in members])
            for i, shard_id in zip(members, shard_ids):
                ids[i] = shard_id
        return ids

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def __contains__(self, key: str) -> bool:
        return self._holding(key) is not None

    def vector(self, key: str) -> np.ndarray:
        shard = self._holding(key)
        if shard is None:
            raise KeyError(f"no live entry for key {key!r}")
        return shard.vector(key)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def remove(self, key: str) -> None:
        """Tombstone ``key`` in the shard that holds it; ``KeyError``
        when no shard does."""
        shard = self._holding(key)
        if shard is None:
            raise KeyError(f"no live entry for key {key!r}")
        shard.remove(key)

    def compact(self) -> int:
        """Compact every shard; returns total slots reclaimed."""
        return sum(shard.compact() for shard in self.shards)

    @property
    def n_tombstones(self) -> int:
        return sum(shard.n_tombstones for shard in self.shards)

    def live_items(self) -> list[tuple[str, np.ndarray, dict]]:
        """``(key, vector, meta)`` across shards, shard-then-insertion
        order."""
        return [item for shard in self.shards for item in shard.live_items()]

    def _merge_signature(self) -> dict:
        return self.spec.signature()

    def merge(self, other) -> int:
        """Fold another index — single-file or sharded — into this one,
        routing every incoming live entry to its owning shard and
        deduping by key.  Returns the number of entries added."""
        return merge_into(self, other)

    def rebalance(self, n_shards: int | None = None) -> int:
        """Redistribute every live entry to its hash-owner shard,
        optionally under a new shard count.  Rebuilds the shards (so
        tombstones are reclaimed, like :meth:`compact`); returns the
        number of entries that changed shards."""
        target = len(self.shards) if n_shards is None else n_shards
        if target < 1:
            raise ValueError(f"n_shards must be at least 1, got {target}")
        # The fresh shards below start unquantized; carry the layout's
        # quantization state (sidecar presence, scoring opt-in and its
        # knobs) across the rebuild so a quantized layout never comes
        # out of a lifecycle op with fp vectors missing their int8
        # twins.
        was_quantized = self.quantized
        was_enabled = self.use_quantized
        overfetch = self.shards[0].q_overfetch
        margin = self.shards[0].q_margin
        moved = 0
        buckets: list[list[tuple[str, np.ndarray, dict]]] = \
            [[] for _ in range(target)]
        for position, shard in enumerate(self.shards):
            for key, vector, meta in shard.live_items():
                owner = shard_of(key, target)
                if owner != position:
                    moved += 1
                buckets[owner].append((key, vector, meta))
        fresh = [self.spec.create_index() for _ in range(target)]
        for shard, items in zip(fresh, buckets):
            if was_quantized:
                # Quantize-before-insert: add_batch then extends the
                # sidecar in lockstep with the fp rows.
                shard.quantize()
            if items:
                shard.add_batch([key for key, _vec, _meta in items],
                                np.stack([vec for _key, vec, _meta in items]),
                                [meta for _key, _vec, meta in items])
            if was_enabled:
                shard.enable_quantized(overfetch=overfetch, margin=margin)
        # The fresh shards' counters restart near zero; raise the offset
        # past the old total so the layout generation stays monotonic
        # (a cache key must never be re-minted by a later state).
        self._generation = self.generation + 1
        self.shards = fresh
        return moved

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def _map_shards(self, fn, jobs: int | None) -> list:
        """Apply ``fn`` to every shard, serially or — ``jobs > 1`` —
        across a thread pool.  Results come back in shard order either
        way, so downstream merges are order-stable and the threaded
        fan-out is bit-identical to the serial one (per-shard arithmetic
        is untouched; only the executor changes).  A shard failure
        propagates out of the pool's context manager — no half-merged
        results, no leaked threads."""
        _check_jobs(jobs)
        if jobs is None or jobs == 1 or len(self.shards) == 1:
            return [fn(shard) for shard in self.shards]
        with ThreadPoolExecutor(
                max_workers=min(jobs, len(self.shards))) as pool:
            return list(pool.map(fn, self.shards))

    def query_vector(self, vector: np.ndarray, k: int = 10,
                     exclude: str | None = None,
                     jobs: int | None = None) -> list[SearchHit]:
        """Top-k neighbours of ``vector`` — the ``Q=1`` case of
        :meth:`query_many`."""
        return self.query_many(np.asarray(vector, float)[None, :], k,
                               excludes=[exclude], jobs=jobs)[0]

    def query_many(self, vectors: np.ndarray, k: int = 10,
                   excludes: list[str | None] | None = None,
                   jobs: int | None = None) -> list[list[SearchHit]]:
        """Fan-out top-k for every row of a ``(Q, dim)`` query matrix:
        each shard runs its partial path over the whole matrix and
        :func:`gather_top_k` takes the fallback decision and merges.
        Matches a single index over the same corpus exactly.
        ``excludes`` is an optional per-query key list aligned with the
        rows; ``jobs=N`` fans the shards over N threads with
        bit-identical results."""
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        matrix = np.asarray(vectors, float)

        def brute(short: list[int]) -> list[list[list[SearchHit]]]:
            brute_excludes = (None if excludes is None
                              else [excludes[q] for q in short])
            return self._map_shards(
                lambda shard: shard.query_brute_many(matrix[short], k,
                                                     excludes=brute_excludes),
                jobs)

        return gather_top_k(k, self._map_shards(
            lambda shard: shard.query_partial_many(matrix, k,
                                                   excludes=excludes),
            jobs), brute)

    def query_table(self, embedder, table, k: int = 10,
                    exclude_self: bool = True,
                    jobs: int | None = None) -> list[SearchHit]:
        """Table-kind counterpart of :meth:`TableIndex.query_table`."""
        from .fingerprint import table_fingerprint

        if self.kind != "table":
            raise ValueError(f"query_table needs a table index, "
                             f"not kind {self.kind!r}")
        variant = self.spec.extra.get("variant", "tblcomp1")
        vector = embedder.table_embedding(table, variant=variant)
        exclude = table_fingerprint(table) if exclude_self else None
        return self.query_vector(vector, k, exclude=exclude, jobs=jobs)

    def query_column(self, embedder, table, j: int, k: int = 10,
                     exclude_self: bool = True,
                     jobs: int | None = None) -> list[SearchHit]:
        """Column-kind counterpart of :meth:`ColumnIndex.query_column`."""
        from .fingerprint import table_fingerprint

        if self.kind != "column":
            raise ValueError(f"query_column needs a column index, "
                             f"not kind {self.kind!r}")
        composite = self.spec.extra.get("composite", True)
        vector = embedder.column_embedding(table, j, composite=composite)
        exclude = (f"{table_fingerprint(table)}:{j}"
                   if exclude_self else None)
        return self.query_vector(vector, k, exclude=exclude, jobs=jobs)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Write the sharded directory layout (see
        :class:`~repro.index.backends.ShardedDirBackend`)."""
        from .backends import ShardedDirBackend

        return ShardedDirBackend().save(self, path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardedIndex(kind={self.kind!r}, dim={self.dim}, "
                f"shards={self.shard_sizes()})")
