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

A :class:`CosineLSH` is one shard's arrays plus its band buckets: one
``(N, dim)`` float64 vector matrix, one ``(N, bands)`` int64 band-key
matrix and, when attached, the three arrays of the int8 sidecar.  It
hashes (:meth:`CosineLSH.key_tuples`, one matmul per band for a whole
``(Q, dim)`` matrix), probes (:meth:`CosineLSH.candidates_for_keys`)
and ranks (:meth:`CosineLSH.rank_many`: **one** similarity kernel call
over the union of every query's ids).  It has no query surface of its
own: :class:`~repro.index.index.VectorIndex` turns keys into ids and
ids into hits, and :func:`~repro.index.index.gather_top_k` decides the
brute-force fallback and heap-merges per-shard rankings through
:func:`merge_ranked`.

Both kernels are einsum, whose accumulation depends only on the
reduction dim: a (query, vector) pair hashes and scores bit-identically
in every batch shape, so "Q rows in one call" equals "Q calls of one
row", equal vectors score exactly equal (ties break by the same id/key
order everywhere) and a tie split across shards stays an exact tie.

Hashing, probing and ranking are read-only: no method but
``add``/``add_all``/``remove``/``quantize`` mutates the index, so
concurrent queries from many threads are safe as long as no writer runs
alongside them.
"""

from __future__ import annotations

import heapq
import sys
from itertools import islice

import numpy as np

from .quantized import approx_scores, quantize_rows, tie_inclusive_cut


def _append_rows(buffer: np.ndarray, n: int, rows: np.ndarray) -> np.ndarray:
    """Write ``rows`` after the first ``n`` rows of ``buffer`` and return
    the buffer, reallocated at double the capacity when it is full (or
    read-only, as an adopted memory mapping is) — amortised O(1) per
    single-row insert."""
    need = n + len(rows)
    if need > len(buffer) or not buffer.flags.writeable:
        grown = np.empty((max(need, 2 * len(buffer)),) + buffer.shape[1:],
                         dtype=buffer.dtype)
        grown[:n] = buffer[:n]
        buffer = grown
    buffer[n:need] = rows
    return buffer


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
        # Ids are row numbers.  Every per-row array below is a buffer
        # whose first _n rows are data; the spare rows past them are
        # capacity, not data.
        self._n = 0
        self._vectors = np.empty((0, dim))
        # Packed band keys per id, recorded at insert time.  remove()
        # reads these instead of re-hashing the stored vector (the keys
        # are what the insert used, by construction), and persistence
        # saves them so a reload can rebuild the buckets without
        # touching the vector data at all — the property that lets
        # memory-mapped opens skip the full read.
        self._band_keys = np.empty((0, n_bands), dtype=np.int64)
        # Tombstoned ids: dropped from band buckets on remove() but kept
        # in _vectors so ids stay positional until a caller-side rebuild
        # (see VectorIndex.compact) reclaims the slots.
        self._removed: set[int] = set()
        # Optional int8 sidecar, row-aligned with _vectors: per-row int8
        # quantization plus the float32 dequantization constants (scale,
        # exact fp norm).  None until quantize() / attach_quantized();
        # once present it is kept fresh by every insert, so it can never
        # go stale against the fp rows.
        self._q8: np.ndarray | None = None
        self._qscales: np.ndarray | None = None
        self._qnorms: np.ndarray | None = None

    def _key_matrix(self, vectors: np.ndarray) -> np.ndarray:
        """Packed band keys for a whole matrix, shape ``(N, bands)`` —
        one matmul per band instead of one per (vector, band).

        The sign projections come from einsum, not BLAS ``@``: BLAS
        picks shape-dependent kernels, so a projection within one ulp
        of 0.0 could change sign between a single-vector and a batched
        hash (or between two different batch sizes) and silently send
        the same vector to different buckets.  einsum's accumulation
        depends only on the reduction dim, so every hashing path —
        inserts and queries of any batch size — produces bit-identical
        keys for the same vector.  (The packing matmul is integer
        arithmetic, which is exact.)
        """
        keys = np.empty((len(vectors), self.n_bands), dtype=np.int64)
        for b, band_planes in enumerate(self.planes):
            signs = np.einsum("pd,nd->np", band_planes, vectors) > 0
            keys[:, b] = signs @ self._pows
        return keys

    def add(self, vector: np.ndarray) -> int:
        """Index one vector (a one-row :meth:`add_all`); returns its id."""
        return self.add_all(np.asarray(vector, float)[None, :])[0]

    def add_all(self, vectors: np.ndarray) -> list[int]:
        """Bulk insert; one hashing matmul per band instead of one per
        (vector, band).  Returns the assigned ids."""
        return self._attach(np.asarray(vectors, float))

    def _attach(self, matrix: np.ndarray, band_keys: np.ndarray | None = None,
                copy: bool = True) -> list[int]:
        """Bulk-insert ``matrix`` rows, optionally reusing precomputed
        ``(N, bands)`` packed band keys and — ``copy=False`` into an
        empty index — adopting ``matrix`` and ``band_keys`` as the
        stored arrays instead of copying them.

        The no-copy path exists for loaders: a freshly read (or
        memory-mapped) matrix has no other owner, so aliasing cannot
        desynchronize the buckets, and keeping the memmap is what makes
        queries page in only the candidates they score.  With saved
        ``band_keys`` the buckets rebuild without reading a single
        vector byte — a memory-mapped cold open does no data I/O.  The
        first insert after that copies into a writeable buffer.
        """
        if matrix.ndim != 2 or matrix.shape[1] != self.dim:
            raise ValueError(f"expected (N, {self.dim}) matrix, got "
                             f"{matrix.shape}")
        if band_keys is None:
            band_keys = self._key_matrix(matrix)
        elif band_keys.shape != (len(matrix), self.n_bands):
            raise ValueError(f"expected ({len(matrix)}, {self.n_bands}) band "
                             f"keys, got {band_keys.shape}")
        start = self._n
        if copy or start:
            self._vectors = _append_rows(self._vectors, start, matrix)
            self._band_keys = _append_rows(self._band_keys, start, band_keys)
        else:
            self._vectors, self._band_keys = matrix, band_keys
        if self._q8 is not None:
            q8, scales, norms = quantize_rows(matrix)
            self._q8 = _append_rows(self._q8, start, q8)
            self._qscales = _append_rows(self._qscales, start, scales)
            self._qnorms = _append_rows(self._qnorms, start, norms)
        self._n = start + len(matrix)
        for table, band in zip(self._tables, band_keys.T.tolist()):
            for offset, key in enumerate(band):
                table.setdefault(key, []).append(start + offset)
        return list(range(start, self._n))

    def remove(self, idx: int) -> None:
        """Tombstone id ``idx``: drop it from every band bucket so it can
        never be a candidate (or a brute-force fallback hit) again.

        The stored vector stays in place — ids are positional, so
        reclaiming the slot is the caller's compaction step.  Removing an
        unknown or already-removed id raises ``KeyError``.
        """
        if not 0 <= idx < self._n or idx in self._removed:
            raise KeyError(f"no live vector with id {idx}")
        # The keys recorded at insert time, not a re-hash: bit-identical
        # by construction, and no page faults on a memory-mapped store.
        for table, key in zip(self._tables, self._band_keys[idx].tolist()):
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

    def live_ids(self) -> list[int]:
        """All non-tombstoned ids in insertion order."""
        return [i for i in range(self._n) if i not in self._removed]

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
        matrix = np.asarray(vectors, float)
        if matrix.ndim != 2 or matrix.shape[1] != self.dim:
            raise ValueError(f"expected (Q, {self.dim}) query matrix, got "
                             f"{matrix.shape}")
        return [tuple(keys) for keys in self._key_matrix(matrix).tolist()]

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

    def rank_many(self, ids_per_query: list[set[int]], matrix: np.ndarray,
                  shortlist: int | None = None
                  ) -> list[list[tuple[int, float]]]:
        """The ranking kernel: cosine-score every query's ids, best
        first, with **one** similarity pass over the union of ids
        (``(C, dim) x (dim, Q)``) instead of one dot product per
        (query, candidate) pair.  ``matrix`` is the ``(Q, dim)`` query
        matrix, row-aligned with ``ids_per_query``.  Each ranking is
        whole, sorted by ``(-score, id)``: callers that re-break ties
        by an external key truncate *after* re-sorting, or a boundary
        tie could change membership.

        ``shortlist=m`` (only honoured when the int8 sidecar is
        attached) prefilters each query's ids to the ``>= m`` best by
        approximate integer score before the exact GEMM — the fp rows
        of dropped ids are never touched, which under ``mmap`` means
        their pages are never faulted in.  The input sets are never
        mutated."""
        if shortlist is not None and self._q8 is not None:
            ids_per_query = self._shortlist_many(ids_per_query, matrix,
                                                 shortlist)
        union = sorted(set().union(*ids_per_query)) if ids_per_query else []
        if not union:
            return [[] for _ in ids_per_query]
        cand = self._vectors[union]
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
            out.append(scored)
        return out

    def __len__(self) -> int:
        return self._n

    def vector(self, idx: int) -> np.ndarray:
        """The stored vector with id ``idx`` (a view)."""
        return self.vectors()[idx]

    def vectors(self) -> np.ndarray:
        """All stored vectors as an ``(N, dim)`` matrix (a view)."""
        return self._vectors[:self._n]

    def band_keys_matrix(self) -> np.ndarray:
        """Packed band keys of every stored vector as an ``(N, bands)``
        int64 matrix (a view) — what persistence saves so a reload can
        rebuild the buckets without re-hashing (or even reading) the
        vectors."""
        return self._band_keys[:self._n]

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
        self._q8, self._qscales, self._qnorms = quantize_rows(self.vectors())
        return self._n

    def attach_quantized(self, q8: np.ndarray, scales: np.ndarray,
                         norms: np.ndarray) -> None:
        """Adopt a persisted int8 sidecar (possibly memory-mapped).

        Shapes and dtypes must match the stored vectors exactly —
        loaders treat a mismatch (foreign writer, hand edit) as "no
        sidecar" rather than trusting wrong data.  The arrays are kept
        as they are, so a memory-mapped sidecar pages in only the
        candidate rows the prefilter scores.
        """
        n = self._n
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
        self._q8, self._qscales, self._qnorms = q8, scales, norms

    def quantized_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sidecar as arrays (views) ``(q8 (N, dim) int8, scales
        (N,) float32, norms (N,) float32)`` — what persistence writes."""
        if self._q8 is None:
            raise ValueError("index has no quantized sidecar")
        n = self._n
        return self._q8[:n], self._qscales[:n], self._qnorms[:n]

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
        queries_q8, _scales, _norms = quantize_rows(matrix)
        approx = approx_scores(self._q8[union], self._qscales[union],
                               self._qnorms[union], queries_q8)
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
    :meth:`CosineLSH.rank_many` returns per query).  Ties are broken by
    ``item`` ascending, matching the single-index sort key — for
    sharded indexes the items are external string keys, so equal-score
    order is content-addressed rather than insertion-dependent.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    merged = heapq.merge(*rankings, key=lambda pair: (-pair[1], pair[0]))
    # islice refuses a stop past sys.maxsize, which the sharded
    # over-fetch (k per shard) reaches for any k past sys.maxsize / 2.
    return list(islice(merged, min(k, sys.maxsize)))
