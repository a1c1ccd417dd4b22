"""Sharded index: one query/lifecycle surface over many shard files.

A :class:`ShardedIndex` holds N ordinary :class:`~repro.index.index.VectorIndex`
shards that share one :class:`~repro.index.spec.IndexSpec`.  Entries are
routed by a stable hash of their key's *table fingerprint* (column keys
``fingerprint:j`` route by the fingerprint prefix, so every column of a
table lands in the table's shard) — the same partition function
``build_sharded`` uses, so incremental ``add`` and map-reduce builds
agree on ownership.

The query surface is :class:`~repro.index.index.LocalIndex`'s, written
once for both local layouts: every shard runs its partial path over the
whole ``(Q, dim)`` query matrix (one hashing matmul per band, one
similarity kernel call per shard; ``jobs=N`` overlaps shards on a thread
pool, gathered in shard order so results stay bit-identical) and
:func:`~repro.retrieval.lsh.gather_top_k` decides the brute-force
fallback on the candidate total across *all* shards and heap-merges the
per-shard rankings — so a sharded query returns exactly what one big
index over the same corpus would (ties broken by key, which is
content-addressed and therefore layout-independent).  This module adds
only what a list of shards needs beyond that: routing, per-shard
lifecycle dispatch and :meth:`ShardedIndex.rebalance`.

The query path is **read-only**, so any number of threads may query one
``ShardedIndex`` concurrently as long as no writer
(``add``/``remove``/``compact``/``merge``/``rebalance``) runs alongside
them.  Writers are not synchronized with readers; interleave them under
an external lock if a workload needs both.  The same read-only property
is what lets ``open_index(path, mmap=True)`` back every shard with a
write-protected memory mapping (the serving default): queries page in
only the candidate rows they score, and any accidental writeback raises
instead of corrupting the layout.

Lifecycle operations dispatch to the owning shard (``remove``), sum
over shards (``compact``), or route incoming entries (``merge``, which
accepts single-file and sharded sources alike).  After skewed merges —
or to change the shard count — :meth:`rebalance` redistributes every
live entry back to its hash owner.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .index import FORMAT_VERSION, LocalIndex
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


class ShardedIndex(LocalIndex):
    """N spec-sharing shards behind the one local index surface."""

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
            mine = (shard.spec.n_planes, shard.spec.n_bands, shard.spec.seed)
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

    def _shards(self) -> list:
        return self.shards

    @property
    def n_shards(self) -> int:
        return len(self.shards)

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

    def rebalance(self, n_shards: int | None = None) -> int:
        """Redistribute every live entry to its hash-owner shard,
        optionally under a new shard count.  Rebuilds the shards (so
        tombstones are reclaimed, like :meth:`compact`); returns the
        number of entries that changed shards."""
        target = len(self.shards) if n_shards is None else n_shards
        if target < 1:
            raise ValueError(f"n_shards must be at least 1, got {target}")
        # The fresh shards below start unquantized; carry the layout's
        # quantization state (sidecar presence and scoring opt-in)
        # across the rebuild so a quantized layout never comes out of a
        # lifecycle op with fp vectors missing their int8 twins.
        was_quantized = self.quantized
        was_enabled = self.use_quantized
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
                shard.enable_quantized()
        # The fresh shards' counters restart near zero; raise the offset
        # past the old total so the layout generation stays monotonic
        # (a cache key must never be re-minted by a later state).
        self._generation = self.generation + 1
        self.shards = fresh
        return moved

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
