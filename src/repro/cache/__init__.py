"""Server-side result cache: one exact tier, generation-scoped.

The storage (:class:`TTLCache`), the key (:func:`exact_key`) and the
tallies (:class:`CacheCounters`) live in :mod:`.result_cache`; the one
owner of an index's cache is its
:class:`~repro.serve.dispatcher.MicroBatchDispatcher`, which looks each
row up at submit and stores each answer at demux.  Cached answers are
*bit-identical* to the uncached path — a hit replays the stored ranking
under a fingerprint that covers every answer-changing request
parameter, the index generation included.
"""

from .result_cache import CacheCounters, TTLCache, exact_key

__all__ = ["CacheCounters", "TTLCache", "exact_key"]
