"""Random-hyperplane LSH for cosine-similarity blocking.

Section 4.1: "We use LSH-based blocking [28] to avoid quadratic
complexity for the entire dataset" when clustering the hundreds of
thousands of columns.  Signs of random projections bucket vectors so
candidate pairs are only drawn from matching buckets (multiple bands
raise recall).  Here blocking serves the index and serving layers.  The
CC/TC/EC task runners rank exactly with
:func:`repro.retrieval.similarity.top_k`: at every size measured (up to
20k rows) blocking them took longer than the exact ranking and lost
about a fifth of the true top-20 (README, "Does each layer pay for
itself?").

There is one query implementation, and it is batched.
:meth:`CosineLSH.query_partial_many` takes a ``(Q, dim)`` query
matrix, hashes it with the same one-matmul-per-band pass bulk inserts
use (:meth:`CosineLSH._key_matrix`), scores every (query, candidate)
pair with **one** similarity kernel call over the union of candidates
(:meth:`CosineLSH._rank_many`) and reports how many candidates there
were; :meth:`CosineLSH.query_brute_many` ranks every live vector
instead.  :func:`gather_top_k` turns partials into answers: it alone
decides, per query and on the candidate total over every shard, when
blocking under-delivered and the brute-force rankings stand in, then
heap-merges per-shard rankings (:func:`merge_ranked`).
:meth:`CosineLSH.query_many` is that gather over this one index.

Both kernels are einsum, whose accumulation depends only on the
reduction dim: a (query, vector) pair hashes and scores bit-identically
in every batch shape, so "Q rows in one call" equals "Q calls of one
row", equal vectors score exactly equal (ties break by the same id/key
order everywhere) and a tie split across shards stays an exact tie.

The whole query surface is read-only: no method on this class mutates
index state after ``add``/``remove``, so concurrent queries from many
threads are safe as long as no writer runs alongside them.
"""

from __future__ import annotations

import heapq
from itertools import islice

import numpy as np

from .quantized import approx_scores, quantize_rows, tie_inclusive_cut


class CosineLSH:
    """Sign-random-projection LSH index.

    Parameters
    ----------
    dim:
        Vector dimensionality.
    n_planes:
        Hyperplanes per band — bucket key length (wider = more precise).
    n_bands:
        Independent hash tables — more bands raise candidate recall.
    """

    def __init__(self, dim: int, n_planes: int = 8, n_bands: int = 4,
                 seed: int = 0):
        if dim <= 0 or n_planes <= 0 or n_bands <= 0:
            raise ValueError("dim, n_planes and n_bands must be positive")
        if n_planes > 63:
            # Band keys pack one sign bit per plane into an int64; beyond
            # that the packed bits would silently overflow to 0 and
            # distinct buckets would collide.
            raise ValueError("n_planes must be at most 63")
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((n_bands, n_planes, dim))
        self.n_bands = n_bands
        self.dim = dim
        # Band keys are sign bits packed into one integer per band.
        self._pows = 1 << np.arange(n_planes, dtype=np.int64)
        self._tables: list[dict[int, list[int]]] = [dict() for _ in range(n_bands)]
        self._vectors: list[np.ndarray] = []
        # Packed band keys per id, recorded at insert time.  remove()
        # reads these instead of re-hashing the stored vector (the keys
        # are what the insert used, by construction), and persistence
        # saves them so a reload can rebuild the buckets without
        # touching the vector data at all — the property that lets
        # memory-mapped opens skip the full read.
        self._band_keys: list[tuple[int, ...]] = []
        # Tombstoned ids: dropped from band buckets on remove() but kept
        # in _vectors so ids stay positional until a caller-side rebuild
        # (see VectorIndex.compact) reclaims the slots.
        self._removed: set[int] = set()
        # Optional int8 sidecar, positionally aligned with _vectors:
        # per-row int8 quantization plus the float32 dequantization
        # constants (scale, exact fp norm).  None until quantize() /
        # attach_quantized(); once present it is kept fresh by every
        # insert path, so it can never go stale against the fp rows.
        self._q8: list[np.ndarray] | None = None
        self._qscales: list | None = None
        self._qnorms: list | None = None

    def _keys(self, vector: np.ndarray) -> list[int]:
        return self._key_matrix(np.asarray(vector, float)[None, :])[:, 0] \
            .tolist()

    def _key_matrix(self, vectors: np.ndarray) -> np.ndarray:
        """Packed band keys for a whole matrix, shape ``(bands, N)`` —
        one matmul per band instead of one per (vector, band).

        The sign projections come from einsum, not BLAS ``@``: BLAS
        picks shape-dependent kernels, so a projection within one ulp
        of 0.0 could change sign between a single-vector and a batched
        hash (or between two different batch sizes) and silently send
        the same vector to different buckets.  einsum's accumulation
        depends only on the reduction dim, so every hashing path —
        ``add``, ``add_all``, ``remove``, queries of any batch size —
        produces bit-identical keys for the same vector.  (The packing
        matmul is integer arithmetic, which is exact.)
        """
        keys = np.empty((self.n_bands, len(vectors)), dtype=np.int64)
        for b, band_planes in enumerate(self.planes):
            signs = np.einsum("pd,nd->np", band_planes, vectors) > 0
            keys[b] = signs @ self._pows
        return keys

    def add(self, vector: np.ndarray) -> int:
        """Index a vector; returns its integer id."""
        if len(vector) != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {len(vector)}")
        idx = len(self._vectors)
        # Copy: storing a view would let later caller-side mutation
        # desynchronize stored vectors from their band buckets.
        self._vectors.append(np.array(vector, dtype=float))
        self._extend_quantized(self._vectors[-1][None, :])
        keys = self._keys(vector)
        self._band_keys.append(tuple(keys))
        for table, key in zip(self._tables, keys):
            table.setdefault(key, []).append(idx)
        return idx

    def add_all(self, vectors: np.ndarray) -> list[int]:
        """Bulk insert; one hashing matmul per band instead of one per
        (vector, band).  Returns the assigned ids."""
        return self._attach(np.asarray(vectors, float))

    def _attach(self, matrix: np.ndarray, band_keys: np.ndarray | None = None,
                copy: bool = True) -> list[int]:
        """Bulk-insert ``matrix`` rows, optionally reusing precomputed
        ``(bands, N)`` packed band keys and — ``copy=False`` — storing
        row *views* instead of copies.

        The no-copy path exists for loaders: a freshly read (or
        memory-mapped) matrix has no other owner, so aliasing cannot
        desynchronize the buckets, and keeping the memmap's rows is what
        makes queries page in only the candidates they score.  With
        saved ``band_keys`` the buckets rebuild without reading a single
        vector byte — a memory-mapped cold open does no data I/O.
        """
        if matrix.ndim != 2 or matrix.shape[1] != self.dim:
            raise ValueError(f"expected (N, {self.dim}) matrix, got "
                             f"{matrix.shape}")
        if band_keys is None:
            band_keys = self._key_matrix(matrix)
        elif band_keys.shape != (self.n_bands, len(matrix)):
            raise ValueError(f"expected ({self.n_bands}, {len(matrix)}) band "
                             f"keys, got {band_keys.shape}")
        start = len(self._vectors)
        self._vectors.extend(np.array(matrix, copy=True) if copy else matrix)
        self._extend_quantized(matrix)
        per_band = [band.tolist() for band in band_keys]
        for table, band in zip(self._tables, per_band):
            for offset, key in enumerate(band):
                table.setdefault(key, []).append(start + offset)
        self._band_keys.extend(zip(*per_band))
        return list(range(start, start + len(matrix)))

    def remove(self, idx: int) -> None:
        """Tombstone id ``idx``: drop it from every band bucket so it can
        never be a candidate (or a brute-force fallback hit) again.

        The stored vector stays in place — ids are positional, so
        reclaiming the slot is the caller's compaction step.  Removing an
        unknown or already-removed id raises ``KeyError``.
        """
        if not 0 <= idx < len(self._vectors) or idx in self._removed:
            raise KeyError(f"no live vector with id {idx}")
        # The keys recorded at insert time, not a re-hash: bit-identical
        # by construction, and no page faults on a memory-mapped store.
        for table, key in zip(self._tables, self._band_keys[idx]):
            bucket = table.get(key)
            if bucket is not None and idx in bucket:
                bucket.remove(idx)
                if not bucket:
                    del table[key]
        self._removed.add(idx)

    @property
    def removed(self) -> frozenset[int]:
        """Ids tombstoned by :meth:`remove` (read-only view)."""
        return frozenset(self._removed)

    @property
    def n_live(self) -> int:
        """Number of indexed vectors that have not been removed."""
        return len(self._vectors) - len(self._removed)

    def live_ids(self) -> list[int]:
        """All non-tombstoned ids in insertion order."""
        return [i for i in range(len(self._vectors)) if i not in self._removed]

    def candidates_many(self, vectors: np.ndarray) -> list[set[int]]:
        """Per-query candidate sets for a whole ``(Q, dim)`` matrix —
        the band keys come from one matmul per band
        (:meth:`_key_matrix`) instead of Q separate hashing passes."""
        return self.candidates_for_keys(self.key_tuples(vectors))

    def key_tuples(self, vectors: np.ndarray) -> list[tuple[int, ...]]:
        """Packed band keys for every row of a ``(Q, dim)`` matrix as
        one hashable ``(n_bands,)`` int tuple per query.  Two queries
        with equal tuples probe exactly the same buckets, so their
        candidate sets are identical by construction.  Same
        shape-independent hashing kernel as every other path
        (:meth:`_key_matrix`), so the tuples are bit-stable across
        batch compositions."""
        matrix = self._as_query_matrix(vectors)
        keys = self._key_matrix(matrix)          # (bands, Q)
        return [tuple(int(key) for key in keys[:, q]) for q in range(len(matrix))]

    def candidates_for_keys(self, key_tuples: list[tuple[int, ...]]
                            ) -> list[set[int]]:
        """Candidate sets for already-hashed queries: probe the band
        buckets with precomputed :meth:`key_tuples` output — the bucket
        probing half of :meth:`candidates_many`."""
        out: list[set[int]] = []
        for keys in key_tuples:
            if len(keys) != self.n_bands:
                raise ValueError(f"expected {self.n_bands} band keys per "
                                 f"query, got {len(keys)}")
            cands: set[int] = set()
            for table, key in zip(self._tables, keys):
                cands.update(table.get(key, ()))
            # Belt and braces: every hashing path goes through the
            # shape-independent _key_matrix, so remove() drops exactly
            # the keys the insert used — but filtering here keeps
            # "removed ids are never candidates" unconditional rather
            # than a property of the hashing kernel.
            cands.difference_update(self._removed)
            out.append(cands)
        return out

    def _as_query_matrix(self, vectors: np.ndarray) -> np.ndarray:
        matrix = np.asarray(vectors, float)
        if matrix.ndim != 2 or matrix.shape[1] != self.dim:
            raise ValueError(f"expected (Q, {self.dim}) query matrix, got "
                             f"{matrix.shape}")
        return matrix

    @staticmethod
    def _as_excludes(excludes, n_queries: int) -> list[int | None]:
        if excludes is None:
            return [None] * n_queries
        excludes = list(excludes)
        if len(excludes) != n_queries:
            raise ValueError(f"excludes must align with the {n_queries} "
                             f"queries, got {len(excludes)}")
        return excludes

    def _rank_many(self, ids_per_query: list[set[int]], matrix: np.ndarray,
                   k: int | None, shortlist: int | None = None
                   ) -> list[list[tuple[int, float]]]:
        """The ranking kernel: cosine-score every query's candidate
        ids, best first, with **one** similarity pass over the union of
        candidates (``(C, dim) x (dim, Q)``) instead of one dot product
        per (query, candidate) pair.  Sort key is ``(-score, id)``;
        ``k`` ``None`` returns the whole ranking (callers that re-break
        ties by an external key must truncate *after* re-sorting, or a
        boundary tie could change membership).

        ``shortlist=m`` (only honoured when the int8 sidecar is
        attached) prefilters each query's candidates to the ``>= m``
        best by approximate integer score before the exact GEMM — the
        fp rows of dropped candidates are never touched, which under
        ``mmap`` means their pages are never faulted in."""
        if shortlist is not None and self._q8 is not None:
            ids_per_query = self._shortlist_many(ids_per_query, matrix,
                                                 shortlist)
        union = sorted(set().union(*ids_per_query)) if ids_per_query else []
        if not union:
            return [[] for _ in ids_per_query]
        cand = np.stack([self._vectors[i] for i in union])
        # The one similarity GEMM — via einsum, NOT ``cand @ matrix.T``:
        # BLAS gemm picks shape-dependent kernels, so the same (query,
        # vector) pair can score differently in different-size batches
        # by one ulp.  Sharded fan-outs score each shard in its own
        # batch, and a tie split across two shards (duplicate vectors)
        # would then stop being an exact tie and break the
        # score-then-key merge order.  einsum's sum-of-products loop
        # depends only on the reduction dim, so equal pairs score
        # bit-equal in every batch shape (pinned by the duplicate-tie
        # property tests in tests/index/test_concurrent_query.py).
        sims = np.einsum("cd,qd->cq", cand, matrix)
        # Zero-vector convention: either norm zero -> similarity 0,
        # never a division warning.
        denom = (np.linalg.norm(cand, axis=1)[:, None]
                 * np.linalg.norm(matrix, axis=1)[None, :])
        sims = np.divide(sims, denom, out=np.zeros_like(sims),
                         where=denom != 0.0)
        row_of = {idx: row for row, idx in enumerate(union)}
        out: list[list[tuple[int, float]]] = []
        for q, ids in enumerate(ids_per_query):
            scored = [(i, float(sims[row_of[i], q])) for i in ids]
            scored.sort(key=lambda pair: (-pair[1], pair[0]))
            out.append(scored if k is None else scored[:k])
        return out

    def query_partial_many(self, vectors: np.ndarray, k: int | None,
                           excludes=None, shortlist: int | None = None
                           ) -> list[tuple[int, list[tuple[int, float]]]]:
        """One shard's contribution to a fan-out query: one
        ``(n_candidates, top-k among candidates)`` pair per query row
        with **no** brute-force fallback — whether blocking
        under-delivered can only be judged on the candidate total
        across all shards.  ``excludes`` is an
        optional per-query id list aligned with the rows.  The reported
        candidate counts are always *pre-shortlist* — the global
        fallback decision must not change when the int8 prefilter is
        active."""
        if k is not None and k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        matrix = self._as_query_matrix(vectors)
        excludes = self._as_excludes(excludes, len(matrix))
        cand_sets = self.candidates_many(matrix)
        for cands, exclude in zip(cand_sets, excludes):
            if exclude is not None:
                cands.discard(exclude)
        rankings = self._rank_many(cand_sets, matrix, k,
                                   shortlist=shortlist)
        return [(len(cands), ranked)
                for cands, ranked in zip(cand_sets, rankings)]

    def query_brute_many(self, vectors: np.ndarray, k: int | None,
                         excludes=None, shortlist: int | None = None
                         ) -> list[list[tuple[int, float]]]:
        """Top-k over every live vector for each query row, ignoring
        the band buckets.  Tombstones still never surface: removed ids
        are excluded even though their vectors occupy slots."""
        if k is not None and k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        matrix = self._as_query_matrix(vectors)
        excludes = self._as_excludes(excludes, len(matrix))
        live = set(self.live_ids())
        ids_per_query = []
        for exclude in excludes:
            ids = set(live)
            if exclude is not None:
                ids.discard(exclude)
            ids_per_query.append(ids)
        return self._rank_many(ids_per_query, matrix, k,
                               shortlist=shortlist)

    def query_many(self, vectors: np.ndarray, k: int,
                   excludes=None, shortlist: int | None = None
                   ) -> list[list[tuple[int, float]]]:
        """Top-k per query row: this index's partials as the one
        ranking :func:`gather_top_k` gathers, so the brute-force
        fallback is the same rule every index layout runs (it reads the
        pre-shortlist candidate count, so the int8 prefilter never
        changes when the fallback fires)."""
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        matrix = self._as_query_matrix(vectors)
        excludes = self._as_excludes(excludes, len(matrix))

        def brute(short: list[int]) -> list[list[list[tuple[int, float]]]]:
            return [self.query_brute_many(matrix[short], k,
                                          excludes=[excludes[q]
                                                    for q in short],
                                          shortlist=shortlist)]

        return gather_top_k(k, [self.query_partial_many(
            matrix, k, excludes=excludes, shortlist=shortlist)], brute,
            merge_ranked)

    def __len__(self) -> int:
        return len(self._vectors)

    def vector(self, idx: int) -> np.ndarray:
        """The stored vector with id ``idx``."""
        return self._vectors[idx]

    def vectors(self) -> np.ndarray:
        """All stored vectors as an ``(N, dim)`` matrix."""
        if not self._vectors:
            return np.zeros((0, self.dim))
        return np.stack(self._vectors)

    def band_keys_matrix(self) -> np.ndarray:
        """Packed band keys of every stored vector as an ``(N, bands)``
        int64 matrix — what persistence saves so a reload can rebuild
        the buckets without re-hashing (or even reading) the vectors."""
        return np.array(self._band_keys,
                        dtype=np.int64).reshape(len(self._vectors),
                                                self.n_bands)

    # ------------------------------------------------------------------
    # Quantized sidecar (int8 prefilter tier)
    # ------------------------------------------------------------------
    @property
    def quantized(self) -> bool:
        """Whether an int8 sidecar is attached (possibly empty)."""
        return self._q8 is not None

    def quantize(self) -> int:
        """(Re)build the int8 sidecar from the stored fp vectors —
        every slot, tombstoned ones included, so ids stay positional.
        Idempotent: re-running on an already-quantized index recomputes
        the same rows.  Returns the number of rows quantized."""
        q8, scales, norms = quantize_rows(
            np.stack(self._vectors) if self._vectors
            else np.zeros((0, self.dim)))
        self._q8 = list(q8)
        self._qscales = list(scales)
        self._qnorms = list(norms)
        return len(self._q8)

    def attach_quantized(self, q8: np.ndarray, scales: np.ndarray,
                         norms: np.ndarray) -> None:
        """Adopt a persisted int8 sidecar (possibly memory-mapped rows).

        Shapes and dtypes must match the stored vectors exactly —
        loaders treat a mismatch (foreign writer, hand edit) as "no
        sidecar" rather than trusting wrong data.  Rows are stored as
        views, so a memory-mapped sidecar pages in only the candidate
        rows the prefilter scores.
        """
        n = len(self._vectors)
        if (q8.shape != (n, self.dim) or scales.shape != (n,)
                or norms.shape != (n,)):
            raise ValueError(
                f"quantized sidecar shapes {q8.shape}/{scales.shape}/"
                f"{norms.shape} do not match {n} stored vectors of dim "
                f"{self.dim}")
        if (q8.dtype != np.int8 or scales.dtype != np.float32
                or norms.dtype != np.float32):
            raise ValueError(
                f"quantized sidecar dtypes {q8.dtype}/{scales.dtype}/"
                f"{norms.dtype} must be int8/float32/float32")
        self._q8 = list(q8)
        self._qscales = list(scales)
        self._qnorms = list(norms)

    def quantized_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sidecar as dense arrays ``(q8 (N, dim) int8, scales (N,)
        float32, norms (N,) float32)`` — what persistence writes."""
        if self._q8 is None:
            raise ValueError("index has no quantized sidecar")
        if not self._q8:
            return (np.zeros((0, self.dim), dtype=np.int8),
                    np.zeros(0, dtype=np.float32),
                    np.zeros(0, dtype=np.float32))
        return (np.stack(self._q8),
                np.array(self._qscales, dtype=np.float32),
                np.array(self._qnorms, dtype=np.float32))

    def _extend_quantized(self, matrix: np.ndarray) -> None:
        """Quantize freshly inserted rows so the sidecar stays aligned
        with ``_vectors`` through every mutation — the structural
        invariant that makes a stale sidecar impossible.  Same batched
        kernel as :meth:`quantize` (elementwise, so single-row and bulk
        inserts quantize bit-identically)."""
        if self._q8 is None:
            return
        q8, scales, norms = quantize_rows(np.asarray(matrix, float))
        self._q8.extend(q8)
        self._qscales.extend(scales)
        self._qnorms.extend(norms)

    def _shortlist_many(self, ids_per_query: list[set[int]],
                        matrix: np.ndarray, m: int) -> list[set[int]]:
        """Integer prefilter: cut each query's candidate set to the
        ``>= m`` best by approximate int8 cosine (tie-inclusive, so
        byte-identical duplicates stay together).  Candidate sets at or
        under ``m`` pass through untouched; the input sets are never
        mutated (callers report pre-shortlist candidate counts, which
        feed the global brute-force fallback decision)."""
        if not any(len(ids) > m for ids in ids_per_query):
            return ids_per_query
        union = sorted(set().union(*ids_per_query))
        q8 = np.stack([self._q8[i] for i in union])
        scales = np.array([self._qscales[i] for i in union],
                          dtype=np.float32)
        norms = np.array([self._qnorms[i] for i in union],
                         dtype=np.float32)
        queries_q8, _scales, _norms = quantize_rows(matrix)
        approx = approx_scores(q8, scales, norms, queries_q8)
        row_of = {idx: row for row, idx in enumerate(union)}
        out: list[set[int]] = []
        for q, ids in enumerate(ids_per_query):
            if len(ids) <= m:
                out.append(ids)
                continue
            ordered = sorted(ids)
            rows = np.fromiter((row_of[i] for i in ordered),
                               dtype=np.int64, count=len(ordered))
            keep = tie_inclusive_cut(approx[rows, q], m)
            out.append({i for i, kept in zip(ordered, keep) if kept})
        return out


def merge_ranked(rankings: list[list[tuple]], k: int) -> list[tuple]:
    """Heap-merge sorted ``(item, score)`` rankings into one global
    top-k.

    Each input must already be sorted best-first (the shape
    :meth:`CosineLSH.query_partial_many` returns per query).  Ties are
    broken by ``item`` ascending, matching the single-index sort key —
    for sharded indexes the items are external string keys, so
    equal-score order is content-addressed rather than
    insertion-dependent.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    merged = heapq.merge(*rankings, key=lambda pair: (-pair[1], pair[0]))
    return list(islice(merged, k))


def gather_top_k(k: int, partials: list[list[tuple[int, list]]], brute,
                 merge) -> list[list]:
    """The gather half of every query, over *results* rather than index
    objects: ``partials[s][q]`` is shard ``s``'s ``(candidate count,
    best-first ranking)`` for query ``q``, in flat shard order.  A query
    whose candidate total across all shards is below ``k`` re-runs as
    brute force on every shard — ``brute(short_rows)`` returns
    ``rankings[s][i]`` for the ``i``-th short query — and every query's
    per-shard rankings then reduce through ``merge(rankings, k)``.

    This is the only code that compares a candidate count with ``k``:
    a bare :class:`CosineLSH`, a single index file, a sharded layout and
    the cluster coordinator all hand their partials here, so blocking
    that under-delivers falls back by one rule everywhere.  One ranking
    (a single file, a one-shard layout) already is the answer, so it
    skips the heap merge.
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
    return [merge([shard[q] for shard in rankings], k)
            for q in range(n_queries)]
