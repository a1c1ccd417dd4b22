"""Table search over a mixed data lake with LSH blocking.

The paper motivates its clusters with table search and data fusion: find
tables similar to a query table across sources.  This example builds a
mixed "data lake" from three generated corpora, indexes composite table
embeddings in a cosine-LSH ``VectorIndex``, and answers table-search
queries without a full quadratic scan — the Section 4.1 blocking
recipe.

Run:  python examples/table_search.py
"""

import numpy as np

from repro.core import TabBiNConfig, TabBiNEmbedder
from repro.datasets import load_dataset
from repro.index import VectorIndex

LAKE_SOURCES = ("webtables", "covidkg", "saus")


def main() -> None:
    print("Building a mixed data lake ...")
    lake = []
    for source in LAKE_SOURCES:
        lake.extend(load_dataset(source, n_tables=12, seed=3))
    print(f"   {len(lake)} tables from {len(LAKE_SOURCES)} sources")

    print("Pre-training TabBiN on the lake ...")
    embedder, _ = TabBiNEmbedder.build(lake, config=TabBiNConfig.small(),
                                       steps=60, vocab_size=800, seed=0)

    print("Indexing composite table embeddings with cosine LSH ...")
    vectors = np.stack([embedder.table_embedding(t, variant="tblcomp1")
                        for t in lake])
    index = VectorIndex(dim=vectors.shape[1], n_planes=8, n_bands=6, seed=0)
    # Keyed by zero-padded lake position: key order is lake order, so
    # score ties break by position.
    keys = [f"{position:04d}" for position in range(len(lake))]
    index.add_batch(keys, vectors)

    query_ids = [0, len(lake) // 2, len(lake) - 1]
    candidates = index.lsh.candidates_many(vectors[query_ids])
    rankings = index.query_many(vectors[query_ids], k=3,
                                excludes=[keys[i] for i in query_ids])
    for query_id, cands, ranked in zip(query_ids, candidates, rankings):
        query = lake[query_id]
        print(f"\nQuery: [{query.topic}] {query.caption[:58]}")
        print(f"   LSH blocking: {len(cands)}/{len(lake)} candidates")
        for hit in ranked:
            table = lake[int(hit.key)]
            marker = "*" if table.topic == query.topic else " "
            print(f"   {marker} {hit.score:.3f}  [{table.topic}] "
                  f"{table.caption[:52]}")

    # Recall sanity: the top hit usually shares the query's topic.
    tops = index.query_many(vectors, k=1, excludes=keys)
    hits = sum(lake[int(top[0].key)].topic == query.topic
               for query, top in zip(lake, tops))
    print(f"\nTop-1 same-topic rate across the lake: {hits / len(lake):.0%}")


if __name__ == "__main__":
    main()
