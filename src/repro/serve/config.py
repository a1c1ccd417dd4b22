"""The serve knobs, validated once.

:class:`ServeConfig` is what ``repro.cli serve`` turns its flags into
and the one object every serving layer reads: the server reports it in
``/stats``, the catalog handle opens, caches and evicts by it, and each
entry's micro-batch dispatcher ticks by it.  A pre-fork parent builds
it once, before forking, so every worker serves under the same
already-validated settings.  It is frozen: nothing downstream can
change a knob the validation did not see.
"""

from __future__ import annotations

from dataclasses import dataclass


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ServeConfig:
    """Every serve knob, with the only copy of its default.

    Each field is the ``serve`` flag of the same name (``max_batch`` is
    ``--max-batch``; ``mmap=False`` is ``--no-mmap``):

    - ``max_batch``: a micro-batch tick fires once this many queries
      are pending (a request bigger than this overflows into the next).
    - ``max_wait_ms``: ... or this many milliseconds after the tick's
      first query arrived; ``0`` fires on the next loop iteration.
    - ``jobs``: threads each tick's ``query_many`` fans shard work over.
    - ``max_backlog``: bound on one index's pending queries; a request
      that would overflow it is shed whole as ``429`` + ``Retry-After``.
      ``None`` is unbounded.
    - ``cache_size``: per-index result-cache entries; ``0`` disables
      caching.  ``cache_ttl`` expires entries after that many seconds
      (``None``: never).
    - ``max_open``: cap on concurrently open unpinned catalog entries,
      beyond which the least-recently-used idle one is evicted; ``None``
      is unbounded.
    - ``mmap``: open layouts memory-mapped (what makes lazy opens and
      eviction cheap) rather than eagerly.
    - ``quantized``: score through each layout's int8 sidecar and rerank
      the shortlist exactly (sized by
      :func:`~repro.retrieval.quantized.shortlist_size`).

    Construction validates every field at once and raises one
    ``ValueError`` with a line per bad field, worded as its flag.
    """

    max_batch: int = 32
    max_wait_ms: float = 2.0
    jobs: int | None = None
    max_backlog: int | None = None
    cache_size: int = 1024
    cache_ttl: float | None = None
    max_open: int | None = None
    mmap: bool = True
    quantized: bool = False

    def __post_init__(self):
        rules = [
            ("max_batch", self.max_batch < 1,
             "--max-batch must be at least 1"),
            ("max_wait_ms", self.max_wait_ms < 0,
             "--max-wait-ms must be >= 0"),
            ("jobs", self.jobs is not None and self.jobs < 1,
             "--jobs must be positive"),
            ("max_backlog",
             self.max_backlog is not None and self.max_backlog < 1,
             "--max-backlog must be at least 1"),
            ("cache_size", not (isinstance(self.cache_size, int)
                                and not isinstance(self.cache_size, bool)
                                and self.cache_size >= 0),
             "--cache-size must be >= 0 (0 disables the cache)"),
            ("cache_ttl", self.cache_ttl is not None
             and not (_is_number(self.cache_ttl) and self.cache_ttl > 0),
             "--cache-ttl must be a positive number of seconds"),
            ("max_open", self.max_open is not None and self.max_open < 1,
             "--max-open must be at least 1"),
        ]
        errors = [f"{message} ({field}={getattr(self, field)!r})"
                  for field, broken, message in rules if broken]
        if errors:
            raise ValueError("\n".join(errors))
