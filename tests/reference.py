"""The slow reference every query mode is checked against.

Deliberately naive and deliberately separate: plain Python floats and
loops, nothing imported from ``repro`` — so a fault anywhere in the
hash → probe → rank → fallback → merge pipeline cannot also be a fault
here.  The contract, in the paper's terms (§4.1): LSH blocking decides
the candidates, cosine ranks them, and blocking that under-delivers
falls back to everything.
"""

from __future__ import annotations

import math


def band_bits(planes, vector) -> list[tuple[bool, ...]]:
    """One sign-bit tuple per band: bit ``p`` is whether ``vector`` lies
    on the positive side of hyperplane ``planes[band][p]``."""
    return [tuple(sum(w * x for w, x in zip(plane, vector)) > 0
                  for plane in band)
            for band in planes]


def cosine(a, b) -> float:
    """Cosine similarity; 0.0 when either vector is all zeros."""
    norm = (math.sqrt(sum(x * x for x in a))
            * math.sqrt(sum(y * y for y in b)))
    return sum(x * y for x, y in zip(a, b)) / norm if norm else 0.0


def reference_candidates(items, planes, query, exclude=None) -> list:
    """Keys of the ``items`` (``(key, vector)`` pairs, live entries
    only) that share at least one band bucket with ``query``, minus
    ``exclude``."""
    wanted = band_bits(planes, query)
    return [key for key, vector in items
            if key != exclude
            and any(mine == theirs for mine, theirs
                    in zip(band_bits(planes, vector), wanted))]


def reference_top_k(items, planes, query, k, exclude=None
                    ) -> list[tuple[object, float]]:
    """The ``k`` best ``(key, score)`` pairs for ``query``: candidates
    are the items sharing a band bucket, falling back to every live
    item when there are fewer than ``k`` of them; best first, ties by
    key ascending."""
    pool = set(reference_candidates(items, planes, query, exclude))
    if len(pool) < k:
        pool = {key for key, _vector in items if key != exclude}
    scored = [(key, cosine(query, vector)) for key, vector in items
              if key in pool]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]
