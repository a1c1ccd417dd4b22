"""Batched corpus encoding behind a content-addressed pooled-vector cache.

The seed repo embedded one table at a time: every ``TabBiNEmbedder``
lookup serialized a single table and ran one ``encode_pooled`` forward
per table, padding each batch to that table's longest sequence.  At
corpus scale (the paper embeds hundreds of thousands of columns) that
wastes both forwards and padding.  :class:`EmbeddingStore` instead
serializes a whole corpus up front, pools the sequences of *all* tables
into fixed-size, length-sorted batches, and scatters the pooled cell
vectors back per table.

Cache entries are keyed by :func:`~repro.index.fingerprint.table_fingerprint`
``(content hash, segment)`` — never ``id(table)`` — so entries survive
garbage collection, are shared between equal-content tables, and remain
meaningful across processes.

The length-bucketed batches are mutually independent, which makes the
scatter step the only synchronization point: ``encode_corpus(...,
workers=N)`` ships the *same* batches the serial path would build to a
``ProcessPoolExecutor`` (the segment models are pickled once per worker)
and gathers the pooled mappings back in original batch order, so the
parallel path is bit-identical to the serial one — same cache entries,
same stats.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from ..core.config import SEGMENTS
from ..tables.table import Table
from .fingerprint import table_fingerprint

#: Default number of sequences per encoder forward.
DEFAULT_BATCH_SIZE = 32

#: Sequences are grouped into length buckets of this many tokens before
#: batching, so a batch pads to its bucket boundary rather than to the
#: longest sequence in the corpus (attention is quadratic in the padded
#: length, so mixed-length batches would erase the batching win).
LENGTH_BUCKET = 16

#: Cap on ``batch_size * padded_len**2`` per forward — the element count
#: of one attention-score matrix.  Beyond this the ``(B, heads, n, n)``
#: temporaries fall out of CPU cache and elementwise ops (softmax, gelu)
#: go memory-bandwidth-bound, so long sequences batch narrower and short
#: ones wider.
ATTENTION_AREA_BUDGET = 65536


#: Segment models installed in each worker process by the pool
#: initializer, so tasks ship only ``(segment, sequences)`` instead of
#: re-pickling the models per batch.
_WORKER_MODELS: dict | None = None


def _init_worker(models: dict) -> None:
    global _WORKER_MODELS
    _WORKER_MODELS = models


def _encode_batch(segment: str, sequences: list) -> list[dict]:
    """One encoder forward in a worker process (top-level so it pickles
    under every multiprocessing start method)."""
    return _WORKER_MODELS[segment].encode_pooled(sequences)


def default_workers() -> int:
    """A safe default worker count: physical parallelism minus one core
    for the gathering parent, at least 1."""
    return max((os.cpu_count() or 2) - 1, 1)


def _bucketed_batches(lengths: list[int], order: list[int],
                      size: int) -> list[list[int]]:
    """Split length-sorted positions into batches of at most ``size``
    that never cross a :data:`LENGTH_BUCKET` boundary or exceed the
    attention-area budget."""
    batches: list[list[int]] = []
    current: list[int] = []
    current_bucket = -1
    for i in order:
        bucket = (lengths[i] + LENGTH_BUCKET - 1) // LENGTH_BUCKET
        over_budget = (len(current) + 1) * lengths[i] ** 2 > ATTENTION_AREA_BUDGET
        if current and (len(current) >= size or bucket != current_bucket
                        or over_budget):
            batches.append(current)
            current = []
        current_bucket = bucket
        current.append(i)
    if current:
        batches.append(current)
    return batches


@dataclass
class StoreStats:
    """Counters for cache behaviour and batching (observability hooks)."""

    hits: int = 0
    misses: int = 0
    tables_encoded: int = 0
    sequences_encoded: int = 0
    batches: int = 0


@dataclass
class EmbeddingStore:
    """Content-addressed cache of pooled segment vectors for a corpus.

    Parameters
    ----------
    serializer:
        A :class:`~repro.core.serialize.TabBiNSerializer`.
    models:
        The four segment models (``row`` / ``column`` / ``hmd`` / ``vmd``).
    batch_size:
        Sequences per encoder forward when batch-encoding a corpus.
    """

    serializer: object
    models: dict
    batch_size: int = DEFAULT_BATCH_SIZE
    stats: StoreStats = field(default_factory=StoreStats)

    def __post_init__(self):
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        # (fingerprint, segment) -> list[(CellRef, np.ndarray)]
        self._cache: dict[tuple[str, str], list[tuple]] = {}
        # Guards the encode-on-miss path in pooled(): concurrent query
        # threads hitting one uncached table must encode it once, not
        # race two encode_corpus calls over the same entry.  Cache hits
        # stay lock-free (dict reads are atomic under the GIL), so the
        # read-mostly query path does not serialize.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def pooled(self, table: Table, segment: str) -> list[tuple]:
        """(CellRef, vector) pairs for one table under one segment model,
        encoding on demand when the table is not cached yet.

        Safe to call from many threads at once: lookups on a primed
        cache never block each other, and a miss encodes under a lock
        (double-checked) so one table is encoded exactly once.  The
        ``stats`` counters are advisory under concurrency.
        """
        key = (table_fingerprint(table), segment)
        entry = self._cache.get(key)
        if entry is not None:
            self.stats.hits += 1
            return entry
        with self._lock:
            entry = self._cache.get(key)
            if entry is not None:
                self.stats.hits += 1
                return entry
            self.stats.misses += 1
            self.encode_corpus([table], segments=(segment,))
            return self._cache[key]

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        self._cache.clear()
        self.stats = StoreStats()

    # ------------------------------------------------------------------
    # Batched corpus encoding
    # ------------------------------------------------------------------
    def encode_corpus(self, tables: list[Table],
                      segments: tuple[str, ...] = SEGMENTS,
                      batch_size: int | None = None,
                      workers: int | None = None) -> int:
        """Encode every uncached table through the given segment models.

        Sequences from all tables are pooled together, sorted by length
        (so a batch pads to a near-uniform length instead of the corpus
        maximum), chunked into ``batch_size`` groups, and scattered back
        per table.  Returns the number of (table, segment) entries newly
        encoded; equal-content duplicates are encoded once.

        ``workers=N`` (N > 1) scatters the batches across a process pool
        instead of encoding them in-loop.  The batches themselves — and
        therefore every pooled vector and every counter in
        :attr:`stats` — are exactly the ones the serial path produces;
        only the executor changes.  ``None`` or ``1`` stays serial (see
        :func:`default_workers` for a machine-sized choice).
        """
        size = self.batch_size if batch_size is None else batch_size
        if size <= 0:
            raise ValueError("batch_size must be positive")
        if workers is not None and workers <= 0:
            raise ValueError("workers must be positive")
        pool: ProcessPoolExecutor | None = None
        encoded = 0
        try:
            for segment in segments:
                if segment not in self.models:
                    raise ValueError(f"unknown segment {segment!r}")
                pending: list[tuple[str, list]] = []
                seen: set[str] = set()
                for table in tables:
                    fp = table_fingerprint(table)
                    if fp in seen or (fp, segment) in self._cache:
                        continue
                    seen.add(fp)
                    pending.append((fp,
                                    self.serializer.serialize(table, segment)))
                if not pending:
                    continue

                flat = [(fp, seq) for fp, seqs in pending for seq in seqs]
                lengths = [len(seq) for _fp, seq in flat]
                order = sorted(range(len(flat)), key=lengths.__getitem__)
                mappings: list[dict | None] = [None] * len(flat)
                chunks = _bucketed_batches(lengths, order, size)
                if workers is not None and workers > 1 and len(chunks) > 1:
                    if pool is None:
                        # One pool for the whole call: the models pickle
                        # into each worker once, then tasks are cheap.
                        pool = ProcessPoolExecutor(
                            max_workers=workers, initializer=_init_worker,
                            initargs=(self.models,))
                    futures = [pool.submit(_encode_batch, segment,
                                           [flat[i][1] for i in chunk])
                               for chunk in chunks]
                    batched = (future.result() for future in futures)
                else:
                    model = self.models[segment]
                    batched = (model.encode_pooled([flat[i][1] for i in chunk])
                               for chunk in chunks)
                for chunk, pooled in zip(chunks, batched):
                    for i, mapping in zip(chunk, pooled):
                        mappings[i] = mapping
                    self.stats.batches += 1

                out_by_fp: dict[str, list[tuple]] = {fp: [] for fp, _ in pending}
                for (fp, seq), mapping in zip(flat, mappings):
                    for idx, vector in mapping.items():
                        out_by_fp[fp].append((seq.cell_refs[idx], vector))
                for fp, out in out_by_fp.items():
                    self._cache[(fp, segment)] = out
                encoded += len(pending)
                self.stats.tables_encoded += len(pending)
                self.stats.sequences_encoded += len(flat)
        finally:
            if pool is not None:
                pool.shutdown()
        return encoded
