"""Server-side result cache: one exact tier, generation-scoped.

See :mod:`repro.cache.engine` for the design contract; the one-line
version is that cached answers are *bit-identical* to the uncached
path — a hit replays the stored ranking under a fingerprint that covers
every answer-changing request parameter.
"""

from .engine import CacheCounters, CachedQueryEngine, QueryPlan
from .result_cache import TTLCache, exact_key

__all__ = [
    "CacheCounters",
    "CachedQueryEngine",
    "QueryPlan",
    "TTLCache",
    "exact_key",
]
