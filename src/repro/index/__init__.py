"""Corpus indexing: batched embedding store + persistent LSH indexes.

The scaling path for the paper's retrieval tasks (Section 4 embeds
hundreds of thousands of columns): :func:`table_fingerprint` gives
tables stable content-addressed identities, :class:`EmbeddingStore`
batch-encodes whole corpora through the four segment models, and
:class:`TableIndex` / :class:`ColumnIndex` persist composite embeddings
behind cosine LSH for sub-quadratic search.

There is one index surface (:mod:`repro.index.index`): a single
versioned ``.npz`` (:class:`VectorIndex`) and a sharded directory of
them (``MANIFEST.json`` + ``shard-XXXX.npz``, :class:`ShardedIndex`)
share the query, quantize, merge and parameter code, and keep their
parameters in one :class:`IndexSpec`.  :func:`open_index` is the one
load entry point — it sniffs the layout (:mod:`repro.index.backends`)
and returns the right object.
"""

from .backends import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    ShardedDirBackend,
    SingleFileBackend,
    open_index,
    read_index_spec,
    save_index,
)
from .fingerprint import table_fingerprint
from .index import (
    FORMAT_VERSION,
    ColumnIndex,
    SearchHit,
    TableIndex,
    VectorIndex,
    index_class,
    merge_shard_rankings,
)
from .sharded import ShardedIndex, shard_of
from .spec import IndexSpec
from .store import DEFAULT_BATCH_SIZE, EmbeddingStore, StoreStats, default_workers

__all__ = [
    "table_fingerprint",
    "EmbeddingStore", "StoreStats", "DEFAULT_BATCH_SIZE", "default_workers",
    "VectorIndex", "TableIndex", "ColumnIndex", "SearchHit",
    "FORMAT_VERSION", "index_class",
    "IndexSpec", "ShardedIndex", "shard_of", "merge_shard_rankings",
    "SingleFileBackend", "ShardedDirBackend",
    "open_index", "save_index", "read_index_spec",
    "MANIFEST_NAME", "MANIFEST_VERSION",
]
