"""``VectorIndex._hits``'s tie-inclusive cut against the full sort.

``_hits`` re-sorts only the prefix of a ``(-score, id)`` ranking that
ends after the last entry scoring ``==`` the k-th score.  The reference
below is the full re-sort it replaced: every candidate sorted by
``(-score, key)``, then truncated.  Both must return the same hits, in
the same order, with the same scores down to the sign of a zero.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import VectorIndex
from testutil import make_corpus


def full_sort_hits(index, ranked, k):
    """The reference: sort every candidate by ``(-score, key)``."""
    ordered = sorted(ranked, key=lambda pair: (-pair[1], index.keys[pair[0]]))
    return [(index.keys[i], score, math.copysign(1.0, score))
            for i, score in ordered[:k]]


def hit_triples(hits):
    return [(hit.key, hit.score, math.copysign(1.0, hit.score))
            for hit in hits]


#: A few distinct values so draws are tie-heavy, both zeros included.
SCORES = st.sampled_from([1.0, 0.5, 0.25, 0.0, -0.0, -0.25, -1.0])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cut_matches_the_full_sort(data):
    n = data.draw(st.integers(0, 40), label="n")
    keys = data.draw(st.lists(st.text("abc", min_size=1, max_size=4),
                              min_size=n, max_size=n, unique=True),
                     label="keys")
    scores = data.draw(st.lists(SCORES, min_size=n, max_size=n),
                       label="scores")
    k = data.draw(st.integers(1, n + 3), label="k")
    index = VectorIndex(dim=2)
    index.add_batch(keys, np.ones((n, 2)))
    ranked = sorted(zip(range(n), scores),
                    key=lambda pair: (-pair[1], pair[0]))
    assert hit_triples(index._hits(ranked, k)) == \
        full_sort_hits(index, ranked, k)


def test_brute_fallback_with_k_at_least_n():
    """Every live entry ranked (the brute-force fallback fires for
    k > N), duplicate vectors tied, keys shuffled against the ids."""
    keys, vectors = make_corpus(n=30, dim=6, seed=4)
    shuffled = list(np.random.default_rng(4).permutation(keys))
    index = VectorIndex(dim=6)
    index.add_batch(shuffled, vectors)
    queries = np.vstack([vectors[:2], np.zeros((1, 6))])
    everything = [set(range(len(index)))] * len(queries)
    for k in (len(index), len(index) + 5):
        want = [full_sort_hits(index, ranked, k)
                for ranked in index.lsh.rank_many(everything, queries)]
        assert [hit_triples(hits)
                for hits in index.query_many(queries, k=k)] == want
