"""Persistent LSH-backed vector indexes over tables and columns.

One index surface, three layouts.  :class:`IndexSurface` is what every
index answers through — a single file, a sharded directory
(:class:`~repro.index.sharded.ShardedIndex`) and a cluster of shard
servers (:class:`~repro.cluster.coordinator.RemoteShardedIndex`): its
parameters live in one :class:`~repro.index.spec.IndexSpec`, and
``query_vector``/``query_many`` are written once on top of two hooks a
layout supplies — per-shard partial answers and per-shard brute-force
answers — which :func:`gather_top_k` turns into rankings (brute-force
fallback decided on the candidate total across every shard, heap merge
by :func:`merge_shard_rankings` only when there is more than one
ranking).  :class:`LocalIndex` adds what the two on-disk layouts share
over their list of shards: the fan-out, ``query_table``/
``query_column``, the quantized tier and ``merge``.

A :class:`VectorIndex` is one shard: it owns a
:class:`~repro.retrieval.lsh.CosineLSH` (the vector and band-key
arrays, the buckets and the rank kernel) plus the external keys (table
fingerprints, ``fingerprint:col`` pairs) and display metadata for every
vector, and is also the single-file layout (a one-shard index).  Its
``query_partial_many``/``query_brute_many`` are the only code that
turns keys into LSH ids and ranked ids into hits — the one query path
under every layout.  :class:`TableIndex` and :class:`ColumnIndex`
specialize it with the paper's composite embeddings (tblcomp / colcomp,
Figure 5) and corpus ``build`` constructors that go through the batched
:class:`~repro.index.store.EmbeddingStore` path.

Indexes round-trip to a single ``.npz`` file: the vector matrix is
stored as an array, everything else (keys, metadata, LSH and embedding
parameters) as a JSON blob.  Loading re-derives the LSH buckets with one
vectorized ``add_all`` — the hyperplanes are seeded, so buckets are
bit-identical across processes.  Files written since the serving work
additionally persist the packed LSH band keys (``band_keys``, an
optional array older readers simply ignore), so a reload rebuilds the
buckets from the saved keys instead of re-hashing every vector — and
``load(mmap=True)`` memory-maps the vector matrix straight out of the
(uncompressed) ``.npz`` member and adopts the mapping as the shard's
matrix, making a cold open touch no vector data at all: queries page in
only the candidate rows they actually score.

Corpora churn, so indexes have a lifecycle beyond ``build``:
:meth:`VectorIndex.remove` tombstones an entry (dropped from the LSH
buckets, slot retained), :meth:`VectorIndex.compact` rebuilds the dense
arrays and bucket tables without the tombstones, and
:meth:`LocalIndex.merge` folds another compatible index in, deduping by
fingerprint key.  The ``.npz`` format is versioned
(:data:`FORMAT_VERSION`) and persists tombstones, so ``save``/``load``
is an exact round-trip at any point of the lifecycle.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..retrieval.lsh import CosineLSH, merge_ranked
from ..retrieval.quantized import shortlist_size
from ..tables.table import Table
from .fingerprint import table_fingerprint
from .spec import IndexSpec

_PAYLOAD_KEY = "__index__"

#: On-disk ``.npz`` format version.  Version 1 (unversioned payloads
#: from before the lifecycle work) had no tombstones; version 2 adds
#: ``format_version`` and a ``tombstones`` id list.  Loaders accept any
#: version up to this one and reject newer files with a clear error
#: instead of silently mis-reading them.
FORMAT_VERSION = 2

#: Name ``np.savez`` gives the vector-matrix member inside the archive.
_VECTORS_MEMBER = "vectors.npy"

#: Archive members of the optional int8 sidecar, in
#: ``(q8, scales, norms)`` order.  Additive: old readers only look at
#: ``vectors``/``band_keys``/the payload, so quantized files load
#: everywhere; files without these members simply have no sidecar.
_QUANT_MEMBERS = ("q8", "q_scales", "q_norms")


def _mmap_npz_member(path: Path, name: str = _VECTORS_MEMBER) -> np.ndarray:
    """Memory-map one array member of an ``.npz`` archive, read-only.

    ``np.load(..., mmap_mode=...)`` ignores the mode for zipped
    archives, so this locates the member's data inside the zip by hand:
    ``np.savez`` stores members uncompressed (``ZIP_STORED``), which
    means the raw ``.npy`` bytes sit contiguously at a knowable offset —
    local file header, then the npy header, then the data.  The returned
    ``np.memmap`` is opened ``mode="r"``: every row handed out is
    read-only, so an accidental writeback anywhere in the query or
    lifecycle paths raises instead of silently corrupting the mapping.

    Members that *are* compressed (no writer in this repo produces them)
    raise ``ValueError`` so the caller can fall back to an eager read.
    """
    import zipfile

    from numpy.lib import format as npy_format

    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(name)
        if info.compress_type != zipfile.ZIP_STORED:
            raise ValueError(f"{name} in {path} is compressed; only stored "
                             f"members can be memory-mapped")
    with open(path, "rb") as handle:
        handle.seek(info.header_offset)
        local_header = handle.read(30)
        if local_header[:4] != b"PK\x03\x04":
            raise ValueError(f"{path}: corrupt zip local header for {name}")
        # The *local* header's name/extra lengths can differ from the
        # central directory's (zip tools pad extras), so read them here.
        name_len = int.from_bytes(local_header[26:28], "little")
        extra_len = int.from_bytes(local_header[28:30], "little")
        handle.seek(info.header_offset + 30 + name_len + extra_len)
        version = npy_format.read_magic(handle)
        try:
            read_header = {(1, 0): npy_format.read_array_header_1_0,
                           (2, 0): npy_format.read_array_header_2_0}[version]
        except KeyError:
            raise ValueError(f"{path}: unsupported npy format version "
                             f"{version} for member {name}") from None
        shape, fortran_order, dtype = read_header(handle)
        if dtype.hasobject:
            raise ValueError(f"{path}: member {name} holds objects and "
                             f"cannot be memory-mapped")
        offset = handle.tell()
    return np.memmap(path, dtype=dtype, mode="r", offset=offset, shape=shape,
                     order="F" if fortran_order else "C")


def _load_member(path: Path, name: str, mmap: bool) -> np.ndarray:
    """One archive member, memory-mapped when asked and possible.

    The mmap parser reads each member's own npy header, so dtype and
    alignment come from the member itself — the fp ``vectors`` matrix,
    the int8 ``q8`` sidecar and its float32 constants all map through
    the same code path.  A member that cannot be mapped (compressed by
    a foreign writer, or zero-length — ``mmap`` rejects empty ranges)
    falls back to an eager read of *that member only*, never dragging
    the rest of the archive into memory with it.
    """
    if mmap:
        try:
            return _mmap_npz_member(path, name + ".npy")
        except (ValueError, OSError):
            pass
    with np.load(path) as archive:
        return archive[name]


@dataclass(frozen=True)
class SearchHit:
    """One ranked neighbour: external key, cosine score, display metadata."""

    key: str
    score: float
    meta: dict

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SearchHit({self.key!r}, {self.score:.3f}, {self.meta})"


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


def gather_top_k(k: int, partials: list[list[tuple[int, list[SearchHit]]]],
                 brute) -> list[list[SearchHit]]:
    """The gather half of every query, over *results* rather than index
    objects: ``partials[s][q]`` is shard ``s``'s ``(candidate count,
    best-first hits)`` for query ``q``, in flat shard order.  A query
    whose candidate total across all shards is below ``k`` re-runs as
    brute force on every shard — ``brute(short_rows)`` returns
    ``rankings[s][i]`` for the ``i``-th short query — and every query's
    per-shard rankings then reduce through :func:`merge_shard_rankings`.

    This is the only code that compares a candidate count with ``k``:
    a single index file, a sharded layout and the cluster coordinator
    all hand their partials here, so blocking that under-delivers falls
    back by one rule everywhere.  One ranking (a single file, a
    one-shard layout) already is the answer, so it skips the heap merge.
    """
    n_queries = len(partials[0])
    rankings = [[ranked for _count, ranked in shard] for shard in partials]
    short = [q for q in range(n_queries)
             if sum(shard[q][0] for shard in partials) < k]
    if short:
        for shard_rankings, shard_brute in zip(rankings, brute(short)):
            for q, ranked in zip(short, shard_brute):
                shard_rankings[q] = ranked
    if len(rankings) == 1:
        return [ranked[:k] for ranked in rankings[0]]
    return [merge_shard_rankings([shard[q] for shard in rankings], k)
            for q in range(n_queries)]


class IndexSurface:
    """The query surface of every index type (see the module
    docstring).  A layout sets :attr:`spec` and supplies
    :meth:`_partials` and :meth:`_brute`; everything else is here."""

    spec: IndexSpec

    @property
    def kind(self) -> str:
        return self.spec.kind

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def model_id(self) -> str | None:
        """Fingerprint of the embedder the vectors came from (see
        :meth:`~repro.core.embedder.TabBiNEmbedder.fingerprint`);
        ``None`` for hand-built indexes.  :meth:`LocalIndex.merge`
        refuses to mix vectors from two *different known* checkpoints —
        same dim and variant do not imply the same embedding space."""
        return self.spec.model_id

    @model_id.setter
    def model_id(self, value: str | None) -> None:
        self.spec.model_id = value

    @property
    def corpus(self) -> dict:
        """Free-form provenance (e.g. dataset/n_tables/seed) persisted
        with the index so queries can check they target the same corpus
        the index was built from."""
        return self.spec.corpus

    @corpus.setter
    def corpus(self, stamp: dict) -> None:
        self.spec.corpus = stamp

    def _partials(self, matrix: np.ndarray, k: int, excludes,
                  jobs: int | None) -> list[list[tuple[int, list[SearchHit]]]]:
        """Per shard, in flat shard order: ``(LSH candidate count, top-k
        among the candidates)`` for every query row."""
        raise NotImplementedError

    def _brute(self, matrix: np.ndarray, k: int, excludes,
               jobs: int | None) -> list[list[list[SearchHit]]]:
        """Per shard, in flat shard order: top-k over every live entry
        for every query row."""
        raise NotImplementedError

    def query_vector(self, vector: np.ndarray, k: int = 10,
                     exclude: str | None = None,
                     jobs: int | None = None) -> list[SearchHit]:
        """Top-k neighbours of ``vector`` — the ``Q=1`` case of
        :meth:`query_many`; ``exclude`` drops one key (typically the
        query's own fingerprint)."""
        return self.query_many(np.asarray(vector, float)[None, :], k,
                               excludes=[exclude], jobs=jobs)[0]

    def query_many(self, vectors: np.ndarray, k: int = 10,
                   excludes: list[str | None] | None = None,
                   jobs: int | None = None) -> list[list[SearchHit]]:
        """Top-k hits for every row of a ``(Q, dim)`` query matrix:
        the layout's partials, gathered by :func:`gather_top_k` (global
        brute-force fallback, then a merge by score and key).  Ties
        break by key, so every layout returns exactly what one index
        over the same corpus would.  ``excludes`` is an optional
        per-query key list aligned with the rows; ``jobs=N`` fans local
        shards over N threads with bit-identical results.  ``k`` or
        ``jobs`` below 1 raises ``ValueError`` instead of silently
        returning nothing."""
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {jobs}")
        matrix = np.asarray(vectors, float)

        def brute(short: list[int]) -> list[list[list[SearchHit]]]:
            return self._brute(matrix[short], k,
                               None if excludes is None
                               else [excludes[q] for q in short], jobs)

        return gather_top_k(k, self._partials(matrix, k, excludes, jobs),
                            brute)


class LocalIndex(IndexSurface):
    """What the two on-disk layouts share over their shards
    (:meth:`_shards`: a single file is its own one shard): the fan-out,
    the table/column queries, the quantized tier and the lifecycle
    reads.  The query path is read-only, so any number of threads may
    query concurrently as long as no writer runs alongside them."""

    def _shards(self) -> list["VectorIndex"]:
        raise NotImplementedError

    def _map_shards(self, fn, jobs: int | None) -> list:
        """Apply ``fn`` to every shard, serially or — ``jobs > 1`` —
        across a thread pool (NumPy releases the GIL inside the
        similarity kernels).  Results come back in shard order either
        way, so the threaded fan-out is bit-identical to the serial one.
        A shard failure propagates out of the pool's context manager —
        no half-merged results, no leaked threads."""
        shards = self._shards()
        if jobs is None or jobs == 1 or len(shards) == 1:
            return [fn(shard) for shard in shards]
        with ThreadPoolExecutor(max_workers=min(jobs, len(shards))) as pool:
            return list(pool.map(fn, shards))

    def _partials(self, matrix, k, excludes, jobs):
        return self._map_shards(
            lambda shard: shard.query_partial_many(matrix, k,
                                                   excludes=excludes), jobs)

    def _brute(self, matrix, k, excludes, jobs):
        return self._map_shards(
            lambda shard: shard.query_brute_many(matrix, k,
                                                 excludes=excludes), jobs)

    def query_table(self, embedder, table: Table, k: int = 10,
                    exclude_self: bool = True,
                    jobs: int | None = None) -> list[SearchHit]:
        """Tables nearest ``table``'s composite embedding (in this
        index's ``variant``), the table itself excluded by default."""
        if self.kind != "table":
            raise ValueError(f"query_table needs a table index, "
                             f"not kind {self.kind!r}")
        vector = embedder.table_embedding(table,
                                          variant=self.spec.extra["variant"])
        exclude = table_fingerprint(table) if exclude_self else None
        return self.query_vector(vector, k, exclude=exclude, jobs=jobs)

    def query_column(self, embedder, table: Table, j: int, k: int = 10,
                     exclude_self: bool = True,
                     jobs: int | None = None) -> list[SearchHit]:
        """Columns nearest column ``j`` of ``table``, the column itself
        excluded by default."""
        if self.kind != "column":
            raise ValueError(f"query_column needs a column index, "
                             f"not kind {self.kind!r}")
        vector = embedder.column_embedding(
            table, j, composite=self.spec.extra["composite"])
        exclude = ColumnIndex.column_key(table, j) if exclude_self else None
        return self.query_vector(vector, k, exclude=exclude, jobs=jobs)

    # ------------------------------------------------------------------
    # Quantized tier
    # ------------------------------------------------------------------
    @property
    def quantized(self) -> bool:
        """Whether *every* shard carries the int8 sidecar — an index is
        only quantized as a whole (empty shards count: they quantize to
        empty sidecars).  Once present a sidecar is kept fresh through
        every mutation (``CosineLSH._attach``,
        :meth:`VectorIndex.compact`)."""
        return all(shard.lsh.quantized for shard in self._shards())

    @property
    def use_quantized(self) -> bool:
        """Whether queries route through the int8 prefilter.  Distinct
        from :attr:`quantized` — a sidecar can be present but unused;
        scoring through it is an explicit opt-in
        (:meth:`enable_quantized`, ``serve --quantized``,
        ``open_index(quantized=True)``)."""
        return all(shard._use_quantized for shard in self._shards())

    def quantize(self) -> int:
        """(Re)build every shard's int8 sidecar from its fp vectors;
        returns the rows quantized.  Idempotent — re-running refreshes
        the sidecars in place.  Queries are unaffected until
        :meth:`enable_quantized` opts in, and rankings are identical
        either way."""
        return sum(shard.lsh.quantize() for shard in self._shards())

    def enable_quantized(self) -> None:
        """Route queries through the int8 prefilter (shortlist sized by
        :func:`~repro.retrieval.quantized.shortlist_size`).  Every shard
        needs the sidecar (build with ``--quantize`` or retrofit with
        ``index quantize``) and is checked first, so a partially
        quantized layout fails whole rather than serving a mix of
        prefiltered and exact shards.  Rankings stay bit-identical to
        the exact path as long as the shortlist holds the true top-k
        (the recall contract the equivalence suite pins)."""
        shards = self._shards()
        for position, shard in enumerate(shards):
            if not shard.lsh.quantized:
                raise ValueError(
                    f"shard {position} of the index has no quantized tier "
                    f"— build with `index build --quantize` or retrofit "
                    f"with `index quantize PATH`")
        for shard in shards:
            shard._use_quantized = True

    # ------------------------------------------------------------------
    # Lifecycle reads and merge
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of *live* (non-tombstoned) entries."""
        return sum(len(shard._id_of) for shard in self._shards())

    @property
    def n_tombstones(self) -> int:
        """Entries removed since the last :meth:`compact`."""
        return sum(len(shard.lsh.removed) for shard in self._shards())

    def live_items(self) -> list[tuple[str, np.ndarray, dict]]:
        """``(key, vector, meta)`` for every live entry, shard then
        insertion order."""
        return [(shard.keys[i], shard.lsh.vector(i), shard.meta[i])
                for shard in self._shards() for i in shard.lsh.live_ids()]

    def merge(self, other: "LocalIndex") -> int:
        """Fold ``other``'s live entries into this index — either layout
        into either layout — deduping by key (fingerprints, so
        equal-content tables merge to one entry; a sharded target routes
        each entry to its owner).  Returns the number of entries
        actually added.

        The vector spaces must agree (:meth:`IndexSpec.signature`; an
        unknown checkpoint is a wildcard, only two *different known*
        ones conflict) or ``ValueError`` is raised.  A known checkpoint
        is adopted, so a later merge with a *third* one is refused
        instead of wildcarded through, and the corpus provenance is
        unioned (a merged multi-corpus index must not keep the first
        input's stamp verbatim)."""
        mine, theirs = self.spec.signature(), other.spec.signature()
        if mine["model_id"] is None or theirs["model_id"] is None:
            del mine["model_id"], theirs["model_id"]
        if mine != theirs:
            diff = {name: (mine.get(name), theirs.get(name))
                    for name in mine.keys() | theirs.keys()
                    if mine.get(name) != theirs.get(name)}
            raise ValueError(f"cannot merge incompatible indexes: {diff}")
        incoming = other.live_items()
        before = len(self)
        if incoming:
            self.add_batch([key for key, _vec, _meta in incoming],
                           np.stack([vec for _key, vec, _meta in incoming]),
                           [dict(meta) for _key, _vec, meta in incoming])
        if self.model_id is None:
            self.model_id = other.model_id
        self.corpus = merge_corpus_stamps(self.corpus, other.corpus)
        return len(self) - before


class VectorIndex(LocalIndex):
    """Keyed cosine-LSH index with ``.npz`` persistence: one shard, and
    the single-file layout."""

    kind = "vector"

    def __init__(self, dim: int, n_planes: int = 8, n_bands: int = 4,
                 seed: int = 0):
        self.spec = IndexSpec(self.kind, dim, n_planes=n_planes,
                              n_bands=n_bands, seed=seed)
        self.lsh = CosineLSH(dim, n_planes=n_planes, n_bands=n_bands, seed=seed)
        self.keys: list[str] = []
        self.meta: list[dict] = []
        self._id_of: dict[str, int] = {}
        #: The on-disk format version this index was loaded from
        #: (:data:`FORMAT_VERSION` for a fresh in-memory build).
        #: Surfaced by the server's ``/healthz`` so a deployment can
        #: verify which format generation is live.
        self.format_version: int = FORMAT_VERSION
        #: Monotonic mutation counter.  Every operation that can change
        #: what a query returns — ``add``/``add_batch`` (new entries),
        #: ``remove``, ``compact`` (slot ids shuffle), ``merge`` (via
        #: ``add_batch``) — bumps it, so any result cached against an
        #: older generation is structurally unreachable (the cache
        #: folds the generation into its keys and clears on change).
        #: Deliberately *not* persisted: a fresh load is a fresh cache
        #: scope.
        self.generation: int = 0
        #: Quantized scoring, set by :meth:`enable_quantized`: the
        #: opt-in behind :attr:`use_quantized`.
        self._use_quantized: bool = False

    def _shards(self) -> list["VectorIndex"]:
        return [self]

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def add(self, key: str, vector: np.ndarray, meta: dict | None = None) -> int:
        """Index one vector under ``key``; duplicate keys are no-ops
        (equal-content tables share a fingerprint and one entry)."""
        existing = self._id_of.get(key)
        if existing is not None:
            return existing
        idx = self.lsh.add(vector)
        self.keys.append(key)
        self.meta.append(meta or {})
        self._id_of[key] = idx
        self.generation += 1
        return idx

    def add_batch(self, keys: list[str], vectors: np.ndarray,
                  metas: list[dict] | None = None) -> list[int]:
        """Bulk insert distinct keys with one vectorized LSH pass."""
        if metas is None:
            metas = [{} for _ in keys]
        if not (len(keys) == len(vectors) == len(metas)):
            raise ValueError("keys, vectors and metas must align")
        fresh: list[int] = []
        batch_seen: set[str] = set()
        for i, key in enumerate(keys):
            if key not in self._id_of and key not in batch_seen:
                batch_seen.add(key)
                fresh.append(i)
        if fresh:
            ids = self.lsh.add_all(np.asarray(vectors, float)[fresh])
            for i, idx in zip(fresh, ids):
                self.keys.append(keys[i])
                self.meta.append(metas[i])
                self._id_of[keys[i]] = idx
            self.generation += 1
        return [self._id_of[key] for key in keys]

    def __contains__(self, key: str) -> bool:
        return key in self._id_of

    def vector(self, key: str) -> np.ndarray:
        return self.lsh.vector(self._id_of[key])

    # ------------------------------------------------------------------
    # Lifecycle: remove / compact
    # ------------------------------------------------------------------
    def remove(self, key: str) -> None:
        """Tombstone ``key``: queries stop returning it immediately; the
        dense slot is reclaimed by the next :meth:`compact`.  Removing a
        key that is not live raises ``KeyError``."""
        idx = self._id_of.pop(key, None)
        if idx is None:
            raise KeyError(f"no live entry for key {key!r}")
        self.lsh.remove(idx)
        self.generation += 1

    def compact(self) -> int:
        """Rebuild the dense arrays and LSH bucket tables without the
        tombstones; returns the number of slots reclaimed.  A no-op (and
        no rebuild) when nothing was removed."""
        dropped = self.n_tombstones
        if not dropped:
            return 0
        # Dense ids shuffle below, so anything id-addressed held
        # against the old layout is wrong from here on: bump before
        # rebuilding.
        self.generation += 1
        was_quantized = self.lsh.quantized
        live = self.live_items()
        self.lsh = CosineLSH(self.dim, n_planes=self.spec.n_planes,
                             n_bands=self.spec.n_bands, seed=self.spec.seed)
        if was_quantized:
            # Quantize-before-insert so add_all extends the (empty)
            # sidecar in lockstep: a quantized index never holds fp
            # rows without their int8 twins, even mid-compaction.
            self.lsh.quantize()
        self.keys, self.meta, self._id_of = [], [], {}
        if live:
            vectors = np.stack([vec for _key, vec, _meta in live])
            ids = self.lsh.add_all(vectors)
            self.keys = [key for key, _vec, _meta in live]
            self.meta = [meta for _key, _vec, meta in live]
            self._id_of = dict(zip(self.keys, ids))
        return dropped

    # ------------------------------------------------------------------
    # Query: this shard's partial and brute-force answers
    # ------------------------------------------------------------------
    def _shortlist_for(self, k: int) -> int | None:
        """The prefilter size the query paths pass down to the LSH
        kernels — ``None`` (no prefilter) unless quantized scoring is
        enabled *and* the sidecar is attached."""
        if not (self._use_quantized and self.lsh.quantized):
            return None
        return shortlist_size(k)

    def _hits(self, ranked: list[tuple[int, float]],
              k: int) -> list[SearchHit]:
        """Re-break score ties in ranked ``(id, score)`` pairs by
        external key, truncate, then materialize hits.  Keys are
        content-addressed, so equal-score order is identical no matter
        how entries were distributed or inserted — the property that
        makes sharded fan-out results exactly reproduce a single
        index's.  (The input is already score-sorted, so the re-sort is
        a near-linear timsort pass; hits are only built for the final
        k.)"""
        ranked = sorted(ranked,
                        key=lambda pair: (-pair[1], self.keys[pair[0]]))
        return [SearchHit(self.keys[i], score, self.meta[i])
                for i, score in ranked[:k]]

    def _query_rows(self, vectors: np.ndarray, k: int,
                    excludes) -> tuple[np.ndarray, list[int | None]]:
        """The one check in front of this shard's two query paths:
        ``k`` at least 1, a ``(Q, dim)`` query matrix, and per-query
        exclude *keys* aligned with its rows, mapped to LSH ids."""
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        matrix = np.asarray(vectors, float)
        if matrix.ndim != 2 or matrix.shape[1] != self.dim:
            raise ValueError(f"expected (Q, {self.dim}) query matrix, got "
                             f"{matrix.shape}")
        if excludes is None:
            return matrix, [None] * len(matrix)
        excludes = list(excludes)
        if len(excludes) != len(matrix):
            raise ValueError(f"excludes must align with the {len(matrix)} "
                             f"queries, got {len(excludes)}")
        return matrix, [self._id_of.get(key) for key in excludes]

    def band_key_tuples(self, vectors: np.ndarray) -> list[tuple[int, ...]]:
        """One hashable packed-band-key tuple per query row: queries
        with equal tuples probe identical buckets (see
        :meth:`~repro.retrieval.lsh.CosineLSH.key_tuples`).  The hash
        stage on its own, which ``benchmarks/e2e`` times."""
        return self.lsh.key_tuples(np.asarray(vectors, float))

    def query_partial_many(self, vectors: np.ndarray, k: int = 10,
                           excludes: list[str | None] | None = None
                           ) -> list[tuple[int, list[SearchHit]]]:
        """One shard's contribution to a fan-out query: ``(number of
        LSH candidates, top-k among them)`` per row with no brute-force
        fallback — whether blocking under-delivered is only decidable
        on the candidate total across every shard (see
        :func:`gather_top_k`).  The count is taken before the int8
        shortlist, so the prefilter never changes when the fallback
        fires."""
        matrix, ids = self._query_rows(vectors, k, excludes)
        cand_sets = self.lsh.candidates_many(matrix)
        for cands, exclude in zip(cand_sets, ids):
            cands.discard(exclude)
        # Rank *all* candidates and truncate after the key tie-break in
        # _hits — truncating by the LSH's id tie-break could swap
        # members at a tied k boundary.
        rankings = self.lsh.rank_many(cand_sets, matrix,
                                      shortlist=self._shortlist_for(k))
        return [(len(cands), self._hits(ranked, k))
                for cands, ranked in zip(cand_sets, rankings)]

    def query_brute_many(self, vectors: np.ndarray, k: int = 10,
                         excludes: list[str | None] | None = None
                         ) -> list[list[SearchHit]]:
        """Top-k over every live entry for each query row, bypassing
        LSH blocking (tombstoned slots are never live)."""
        matrix, ids = self._query_rows(vectors, k, excludes)
        live = set(self.lsh.live_ids())
        rankings = self.lsh.rank_many([live - {exclude} for exclude in ids],
                                      matrix,
                                      shortlist=self._shortlist_for(k))
        return [self._hits(ranked, k) for ranked in rankings]

    # ------------------------------------------------------------------
    # Sharded map-reduce build
    # ------------------------------------------------------------------
    @classmethod
    def build_sharded(cls, embedder, tables: list[Table], shards: int = 4,
                      workers: int | None = None,
                      batch_size: int | None = None, **build_kwargs):
        """Map-reduce corpus build: partition tables by fingerprint hash
        (the same routing :class:`~repro.index.sharded.ShardedIndex`
        uses for ``add``), batch-encode the whole corpus once —
        optionally scattered over ``workers`` processes — then run the
        ordinary ``cls.build`` per partition and assemble the shards
        under one :class:`~repro.index.sharded.ShardedIndex`.

        The per-partition builds run serially: the one global precompute
        primed the embedder's cache, so each is pure cache hits and
        composes vectors from exactly the pooled vectors.

        Only meaningful on subclasses that define ``build`` (``TableIndex``
        / ``ColumnIndex``); extra keyword arguments (``variant``,
        ``composite``, LSH geometry, ...) pass through to it.
        """
        from .sharded import ShardedIndex, shard_of

        if shards < 1:
            raise ValueError(f"shards must be at least 1, got {shards}")
        if not tables:
            raise ValueError("cannot build an index over an empty corpus")
        # Map step: one batched encode over the full corpus primes the
        # content-addressed cache, so the per-partition builds below are
        # pure cache hits (encode_corpus skips cached tables).
        embedder.precompute(tables, batch_size=batch_size, workers=workers)
        partitions: list[list[Table]] = [[] for _ in range(shards)]
        for table in tables:
            partitions[shard_of(table_fingerprint(table), shards)].append(table)
        built = {position: cls.build(embedder, partition,
                                     batch_size=batch_size, **build_kwargs)
                 for position, partition in enumerate(partitions)
                 if partition}
        # Reduce step: empty partitions (small corpora, skewed hashes)
        # become empty shards with the same spec, so routing stays
        # aligned with the shard count.
        spec = next(iter(built.values())).spec.copy()
        return ShardedIndex(spec, [built[position] if position in built
                                   else spec.create_index()
                                   for position in range(shards)])

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Write the full lifecycle state — dense vectors *including*
        tombstoned slots plus the tombstone id list — so a loaded index
        is an exact replica mid-lifecycle, not a silently compacted one.

        The packed LSH band keys ride along as an extra ``band_keys``
        array (still format v2 — older readers only look at ``vectors``
        and the payload, so the addition is invisible to them).  They
        let :meth:`load` rebuild the buckets without re-hashing, which
        is what makes ``mmap=True`` opens skip the vector data
        entirely.

        A quantized index additionally writes its int8 sidecar as
        ``q8``/``q_scales``/``q_norms`` members — equally invisible to
        older readers.  The members are written if and only if the
        in-memory sidecar is present, and that sidecar is kept fresh
        through every mutation, so on-disk int8 data can never be stale
        against the fp vectors it sits next to."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps({"format_version": FORMAT_VERSION,
                              "params": self.spec.to_params(),
                              "keys": self.keys, "meta": self.meta,
                              "tombstones": sorted(self.lsh.removed)})
        arrays = {"vectors": self.lsh.vectors(),
                  "band_keys": self.lsh.band_keys_matrix()}
        if self.lsh.quantized:
            arrays.update(zip(_QUANT_MEMBERS, self.lsh.quantized_arrays()))
        np.savez(path, **arrays,
                 **{_PAYLOAD_KEY: np.frombuffer(payload.encode("utf-8"),
                                                dtype=np.uint8)})
        return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")

    @classmethod
    def load(cls, path: str | Path, mmap: bool = False) -> "VectorIndex":
        """Load a saved index as the class its ``kind`` names (an
        unknown kind raises :func:`index_class`'s ``ValueError``; so
        does a kind other than ``cls``'s, unless ``cls`` is
        :class:`VectorIndex`).  ``mmap=True`` memory-maps the vector
        matrix read-only instead of reading it eagerly: when the file
        also carries saved ``band_keys`` (anything written since the
        serving work), the open touches *no* vector data — queries then
        page in only the candidate rows they score.  Legacy v1/v2 files
        without saved keys still open under mmap; they pay one streamed
        hashing pass over the mapping, but never a resident in-heap
        copy.  Results are bit-identical either way."""
        path = _resolve_saved_path(path)
        with np.load(path) as archive:
            payload, spec, version = _read_payload(archive, path)
            band_keys = (archive["band_keys"]
                         if "band_keys" in archive.files else None)
            has_quant = all(name in archive.files
                            for name in _QUANT_MEMBERS)
            vectors = None if mmap else archive["vectors"]
        if cls is not VectorIndex and spec.kind != cls.kind:
            raise ValueError(f"{path} holds a {spec.kind!r} index, "
                             f"not {cls.kind!r}")
        if mmap:
            # The vectors member and — when present — the int8 sidecar
            # all map through the same per-member parser (dtype and
            # alignment come from each member's own npy header); any
            # member that cannot be mapped falls back to an eager read
            # of just that member.
            vectors = _load_member(path, "vectors", mmap=True)
        quantized = None
        if has_quant:
            quantized = tuple(_load_member(path, name, mmap=mmap)
                              for name in _QUANT_MEMBERS)
            q8, scales, norms = quantized
            if (q8.shape != np.shape(vectors) or q8.dtype != np.int8
                    or scales.shape != (len(vectors),)
                    or norms.shape != (len(vectors),)
                    or scales.dtype != np.float32
                    or norms.dtype != np.float32):
                # A foreign writer (or hand edit) whose sidecar doesn't
                # line up with the fp vectors: load unquantized rather
                # than trust wrong int8 data.
                quantized = None
        if band_keys is not None and band_keys.shape != (len(vectors),
                                                         spec.n_bands):
            # A foreign writer (or hand edit) whose keys don't line up:
            # re-hash rather than rebuild wrong buckets.
            band_keys = None
        index = spec.create_index()
        index.format_version = version
        keys, tombstones = payload["keys"], payload.get("tombstones", [])
        if len(keys):
            # No copy: the matrix was freshly read (or memory-mapped)
            # for this load, so no other owner can mutate it out from
            # under the buckets.  Adopting the memmap as-is is what lets
            # queries page in only the candidates they score.
            index.lsh._attach(np.asarray(vectors, float),
                              band_keys=None if band_keys is None
                              else np.asarray(band_keys, np.int64),
                              copy=False)
            index.keys = list(keys)
            index.meta = list(payload["meta"])
            for idx in tombstones:
                index.lsh.remove(idx)
            dead = set(tombstones)
            # A key removed and later re-added occupies two dense slots;
            # only the live one may win the key -> id mapping.
            index._id_of = {key: i for i, key in enumerate(keys)
                            if i not in dead}
        if quantized is not None:
            # Attached even for an empty index: an empty shard of a
            # quantized layout must load as quantized, or the sharded
            # all-shards-quantized invariant would break on skewed
            # layouts.
            index.lsh.attach_quantized(*quantized)
        return index


def _resolve_saved_path(path: str | Path) -> Path:
    """Where a saved single-file index actually lives.

    save("foo.idx") writes "foo.idx.npz" (numpy appends the suffix), so
    the fallback must *append* too — with_suffix would replace ".idx"
    and look for a "foo.npz" that was never written.  Gate on is_file,
    not exists: a stray *directory* at ``path`` must not pre-empt the
    sibling."""
    path = Path(path)
    if not path.is_file():
        appended = path.with_name(path.name + ".npz")
        if appended.is_file():
            path = appended
    return path


def _read_payload(archive, path: Path) -> tuple[dict, IndexSpec, int]:
    """``(payload, spec, format_version)`` of an open single-file
    archive — only the payload member is decoded (``np.load`` reads zip
    members lazily).  The one place a file's format version and spec
    are checked, for :meth:`VectorIndex.load` and the spec peek
    ``catalog add``/``catalog list`` use alike: a too-new version, a
    missing field or an unknown kind is a ``ValueError``."""
    payload = json.loads(bytes(archive[_PAYLOAD_KEY]).decode("utf-8"))
    version = payload.get("format_version", 1)
    if version > FORMAT_VERSION:
        raise ValueError(f"{path} uses index format v{version}; this "
                         f"build reads up to v{FORMAT_VERSION}")
    try:
        return payload, IndexSpec.from_params(payload["params"]), version
    except KeyError as error:
        raise ValueError(f"{path} payload lacks required field {error} — "
                         f"the file is corrupt or hand-edited") from error


def index_class(kind: str) -> type:
    """The :class:`VectorIndex` subclass registered for ``kind``."""
    try:
        return _KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown index kind {kind!r}; expected one of "
                         f"{sorted(_KINDS)}") from None


def merge_corpus_stamps(mine: dict, theirs: dict) -> dict:
    """Union two corpus-provenance stamps, flattening nested
    ``merged_from`` lists and deduping equal provenances."""
    if mine == theirs:
        return mine

    def provenances(stamp: dict) -> list[dict]:
        if not stamp:
            return []
        return list(stamp.get("merged_from", [stamp]))

    combined: list[dict] = []
    for stamp in provenances(mine) + provenances(theirs):
        if stamp not in combined:
            combined.append(stamp)
    return {"merged_from": combined} if combined else {}


class TableIndex(VectorIndex):
    """Whole-table retrieval over composite table embeddings."""

    kind = "table"

    def __init__(self, dim: int, variant: str = "tblcomp1", **kwargs):
        super().__init__(dim, **kwargs)
        self.spec.extra["variant"] = variant

    @staticmethod
    def table_meta(table: Table) -> dict:
        return {"caption": table.caption, "topic": table.topic,
                "shape": list(table.shape)}

    @classmethod
    def build(cls, embedder, tables: list[Table], variant: str = "tblcomp1",
              n_planes: int = 8, n_bands: int = 4, seed: int = 0,
              batch_size: int | None = None,
              workers: int | None = None) -> "TableIndex":
        """Index a corpus: one batched encode pass, then one bulk insert."""
        if not tables:
            raise ValueError("cannot build an index over an empty corpus")
        embedder.precompute(tables, batch_size=batch_size, workers=workers)
        keys = [table_fingerprint(t) for t in tables]
        vectors = np.stack([embedder.table_embedding(t, variant=variant)
                            for t in tables])
        index = cls(vectors.shape[1], variant=variant, n_planes=n_planes,
                    n_bands=n_bands, seed=seed)
        index.model_id = embedder.fingerprint()
        index.add_batch(keys, vectors, [cls.table_meta(t) for t in tables])
        return index


class ColumnIndex(VectorIndex):
    """Per-column retrieval over colcomp embeddings (Figure 5b)."""

    kind = "column"

    def __init__(self, dim: int, composite: bool = True, **kwargs):
        super().__init__(dim, **kwargs)
        self.spec.extra["composite"] = composite

    @staticmethod
    def column_key(table: Table, j: int) -> str:
        return f"{table_fingerprint(table)}:{j}"

    @classmethod
    def build(cls, embedder, tables: list[Table], composite: bool = True,
              n_planes: int = 8, n_bands: int = 4, seed: int = 0,
              batch_size: int | None = None,
              workers: int | None = None) -> "ColumnIndex":
        if not tables:
            raise ValueError("cannot build an index over an empty corpus")
        embedder.precompute(tables, batch_size=batch_size, workers=workers)
        keys: list[str] = []
        vectors: list[np.ndarray] = []
        metas: list[dict] = []
        for table in tables:
            for j in range(table.n_cols):
                keys.append(cls.column_key(table, j))
                vectors.append(embedder.column_embedding(table, j,
                                                         composite=composite))
                metas.append({"caption": table.caption, "col": j,
                              "label": table.column_label(j),
                              "concept": table.column_concept(j)})
        index = cls(len(vectors[0]), composite=composite, n_planes=n_planes,
                    n_bands=n_bands, seed=seed)
        index.model_id = embedder.fingerprint()
        index.add_batch(keys, np.stack(vectors), metas)
        return index


_KINDS = {cls.kind: cls for cls in (VectorIndex, TableIndex, ColumnIndex)}
