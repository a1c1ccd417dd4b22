"""Table 3: Word2vec dimensionality sweep — training time vs MAP/MRR.

Paper finding: no notable accuracy difference above dim 300, while
training time keeps growing; the paper therefore fixes dim = 300.  At
bench scale the saturation point is lower but the shape is the same:
accuracy plateaus with dimension while training time rises
monotonically.
"""

from repro.baselines import Word2Vec, corpus_tuples, make_column_embedder, make_table_embedder
from repro.eval import ResultsTable, collect_columns, column_clustering, table_clustering

from .common import RESULTS_DIR, corpus, fmt, is_textual_column

DIMS = (25, 50, 100, 200)
#: Trainings per dim behind the timing check: one wall-clock training
#: is too noisy to order two dims on a shared machine.
TIMING_ROUNDS = 3


def run_sweep():
    tables = list(corpus("cancerkg"))
    texts = corpus_tuples(tables)
    string_columns = collect_columns(tables, predicate=is_textual_column)
    out = ResultsTable(
        "Table 3: Word2vec dims - train time vs MAP/MRR (CancerKG strings)",
        columns=["train_s", "CC MAP/MRR", "TC MAP/MRR"],
    )
    for dim in DIMS:
        model = Word2Vec(dim=dim, window=3, seed=0).train(texts, epochs=3)
        cc = column_clustering(tables, make_column_embedder(model),
                               columns=string_columns, max_queries=40)
        tc = table_clustering(tables, make_table_embedder(model))
        out.add(f"dim={dim}", "train_s", f"{model.train_seconds:.2f}")
        out.add(f"dim={dim}", "CC MAP/MRR", fmt(cc))
        out.add(f"dim={dim}", "TC MAP/MRR", fmt(tc))
    return out


def fastest_train_seconds(dims, rounds=TIMING_ROUNDS):
    """Each dim's fastest of ``rounds`` trainings, interleaved across
    dims so a drift in the machine's load falls on every dim alike."""
    texts = corpus_tuples(list(corpus("cancerkg")))
    best = dict.fromkeys(dims, float("inf"))
    for _round in range(rounds):
        for dim in dims:
            model = Word2Vec(dim=dim, window=3, seed=0).train(texts, epochs=3)
            best[dim] = min(best[dim], model.train_seconds)
    return best


def test_table03_word2vec_dimensionality(benchmark):
    table = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table.show()
    table.save(RESULTS_DIR / "table03_w2v_dims.md")
    # Shape checks: accuracy plateaus with dimension (paper: no notable
    # difference past the chosen dim) while training cost does not drop.
    maps = [float(table.get(f"dim={d}", "CC MAP/MRR").split("/")[0])
            for d in DIMS]
    assert abs(maps[-1] - maps[-2]) < 0.2
    best = fastest_train_seconds((DIMS[0], DIMS[-1]))
    assert best[DIMS[-1]] >= best[DIMS[0]] * 0.8
