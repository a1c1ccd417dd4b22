"""Corpus indexing: batched embedding store + persistent LSH indexes.

The scaling path for the paper's retrieval tasks (Section 4 embeds
hundreds of thousands of columns): :func:`table_fingerprint` gives
tables stable content-addressed identities, :class:`EmbeddingStore`
batch-encodes whole corpora through the four segment models, and
:class:`TableIndex` / :class:`ColumnIndex` persist composite embeddings
behind cosine LSH for sub-quadratic search.

Persistence goes through pluggable backends (:mod:`repro.index.backends`):
a single versioned ``.npz`` or a sharded directory of them
(``MANIFEST.json`` + ``shard-XXXX.npz``) behind a
:class:`~repro.index.sharded.ShardedIndex`.  :func:`open_index` is the
one load entry point — it sniffs the layout and returns the right
object.
"""

from .backends import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    IndexBackend,
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
    read_saved_payload,
)
from .sharded import (ShardedIndex, gather_top_k, merge_shard_rankings,
                      shard_of)
from .spec import IndexSpec
from .store import DEFAULT_BATCH_SIZE, EmbeddingStore, StoreStats, default_workers

__all__ = [
    "table_fingerprint",
    "EmbeddingStore", "StoreStats", "DEFAULT_BATCH_SIZE", "default_workers",
    "VectorIndex", "TableIndex", "ColumnIndex", "SearchHit",
    "FORMAT_VERSION", "index_class",
    "IndexSpec", "ShardedIndex", "shard_of", "merge_shard_rankings",
    "gather_top_k",
    "IndexBackend", "SingleFileBackend", "ShardedDirBackend",
    "open_index", "save_index", "read_index_spec", "read_saved_payload",
    "MANIFEST_NAME", "MANIFEST_VERSION",
]
