"""Every query mode against the one slow oracle in ``reference.py``.

The serving stack has one read path (hash → probe → rank → global
brute-force fallback → merge) reached through many front doors; each
front door here answers the same (query, k, exclude) cases and must
return the oracle's keys in the oracle's order, scores within 1e-9.
The corpora aim at the three places a ranking can silently go wrong:
generic gaussians, dense exact-score ties (tie-break and cross-shard
merge order) and ``k`` pinned around the candidate total (the fallback
threshold).  Every corpus carries one tombstone.
"""

from __future__ import annotations

import ast
import functools
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from dispatchutil import cached, dispatch
from reference import reference_candidates, reference_top_k

import repro
from repro.cluster import ClusterHarness, split_layout
from repro.index import IndexSpec, ShardedIndex, VectorIndex, open_index
from repro.retrieval import CosineLSH

DIM = 12
SEED = 5
#: Index of the entry every corpus removes after the bulk insert.
REMOVED = 3


def _keys(n: int) -> list[str]:
    # Zero-padded, so key order is insertion order.
    return [f"t{i:05d}" for i in range(n)]


@functools.cache
def corpus(name: str):
    """``(keys, vectors, cases)`` with ``cases`` a list of ``(query,
    k, exclude)``; the removed entry is still in ``keys``/``vectors``
    (modes insert it, then remove it)."""
    rng = np.random.default_rng({"random": 1, "duplicate-ties": 2,
                                 "fallback-boundary": 3}[name])
    if name == "duplicate-ties":
        vectors = np.repeat(rng.standard_normal((20, DIM)), 3, axis=0)
    else:
        vectors = rng.standard_normal((24 if name == "fallback-boundary"
                                       else 80, DIM))
    keys = _keys(len(vectors))
    queries = np.vstack([vectors[[0, 7, REMOVED]],
                         rng.standard_normal((3, DIM))])
    excludes = [None, keys[0], keys[7]]
    cases = []
    for query in queries:
        for exclude in excludes:
            if name == "fallback-boundary":
                total = len(reference_candidates(
                    live_items(keys, vectors), planes(), query.tolist(),
                    exclude))
                ks = {max(1, total - 1), max(1, total), total + 1}
            else:
                ks = {1, 4, len(keys) + 5}
            cases.extend((query, k, exclude) for k in sorted(ks))
    return keys, vectors, cases


def live_items(keys, vectors) -> list[tuple[str, list[float]]]:
    return [(key, vector.tolist())
            for position, (key, vector) in enumerate(zip(keys, vectors))
            if position != REMOVED]


@functools.cache
def planes() -> list:
    return CosineLSH(DIM, seed=SEED).planes.tolist()


@functools.cache
def expected(name: str) -> list[list[tuple[str, float]]]:
    keys, vectors, cases = corpus(name)
    items = live_items(keys, vectors)
    return [reference_top_k(items, planes(), query.tolist(), k, exclude)
            for query, k, exclude in cases]


def build(keys, vectors, n_shards: int | None):
    """A single file (``n_shards`` None) or a sharded layout."""
    if n_shards is None:
        index = VectorIndex(dim=DIM, seed=SEED)
    else:
        index = ShardedIndex.create(
            IndexSpec(kind="vector", dim=DIM, seed=SEED), n_shards)
    index.add_batch(keys, vectors)
    index.remove(keys[REMOVED])
    return index


def via_query_many(index, jobs=None):
    def search(matrix, k, excludes):
        return [[(hit.key, hit.score) for hit in hits]
                for hits in index.query_many(matrix, k=k, excludes=excludes,
                                             jobs=jobs)]
    return search


@contextmanager
def open_mode(mode: str, keys, vectors, tmp_path):
    """Yield ``search(matrix, k, excludes) -> [[(key, score), ...]]``
    for one front door over the corpus."""
    if mode == "single-rows":
        # Q one-row calls must equal the one Q-row call of "single".
        one_row = via_query_many(build(keys, vectors, None))

        def search(matrix, k, excludes):
            return [one_row(row[None, :], k, [exclude])[0]
                    for row, exclude in zip(matrix, excludes)]
        yield search
    elif mode == "single":
        yield via_query_many(build(keys, vectors, None))
    elif mode.startswith("sharded"):
        _, n_shards, jobs = mode.split("-")
        yield via_query_many(build(keys, vectors, int(n_shards)),
                             jobs=int(jobs))
    elif mode == "mmap":
        path = build(keys, vectors, 2).save(tmp_path / "layout")
        yield via_query_many(open_index(path, mmap=True))
    elif mode == "quantized":
        index = build(keys, vectors, None)
        index.quantize()
        index.enable_quantized()
        yield via_query_many(index)
    elif mode == "cached":
        dispatcher = cached(build(keys, vectors, 2), 512)

        def search(matrix, k, excludes):
            miss, hit = (dispatch(dispatcher, matrix, k, excludes)
                         for _ in range(2))
            assert miss == hit
            return [[(h.key, h.score) for h in hits] for hits in hit]
        yield search
        assert dispatcher.counters.exact_hits > 0
    elif mode == "cluster":
        paths = split_layout(build(keys, vectors, 5), tmp_path / "cluster", 2)
        with ClusterHarness(paths) as cluster:
            yield via_query_many(cluster.connect(retries=1))
    else:
        raise AssertionError(mode)


MODES = ["single-rows", "single", "sharded-1-1", "sharded-2-1",
         "sharded-2-2", "sharded-5-1", "sharded-5-2", "mmap", "quantized",
         "cached", "cluster"]


@pytest.mark.parametrize("name", ["random", "duplicate-ties",
                                  "fallback-boundary"])
@pytest.mark.parametrize("mode", MODES)
def test_mode_matches_the_oracle(mode, name, tmp_path):
    keys, vectors, cases = corpus(name)
    want = expected(name)
    by_k: dict[int, list[int]] = {}
    for position, (_query, k, _exclude) in enumerate(cases):
        by_k.setdefault(k, []).append(position)
    with open_mode(mode, keys, vectors, tmp_path) as search:
        for k, positions in by_k.items():
            got = search(np.stack([cases[p][0] for p in positions]), k,
                         [cases[p][2] for p in positions])
            for position, ranking in zip(positions, got):
                reference = want[position]
                assert [key for key, _score in ranking] \
                    == [key for key, _score in reference], (k, position)
                assert [score for _key, score in ranking] == pytest.approx(
                    [score for _key, score in reference], abs=1e-9)


def test_the_corpora_reach_what_they_aim_at():
    """The oracle cases must actually contain score ties, fallbacks and
    non-fallbacks — or the matrix above proves less than it says."""
    assert any(len({round(score, 12) for _key, score in ranking})
               < len(ranking) for ranking in expected("duplicate-ties"))
    keys, vectors, cases = corpus("fallback-boundary")
    items = live_items(keys, vectors)
    totals = [len(reference_candidates(items, planes(), query.tolist(),
                                       exclude))
              for query, _k, exclude in cases]
    ks = [k for _query, k, _exclude in cases]
    assert any(total < k for total, k in zip(totals, ks))
    assert any(total == k for total, k in zip(totals, ks))
    assert any(total > k for total, k in zip(totals, ks))


def _fallback_comparisons(tree: ast.AST) -> list[str]:
    """The enclosing function of every ``count < k``-shaped comparison
    (anything compared ``<``/``<=`` against a bare ``k``, or ``k``
    ``>``/``>=`` anything but a constant)."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if (isinstance(op, (ast.Lt, ast.LtE))
                        and isinstance(right, ast.Name) and right.id == "k"):
                    found.append(function)
                elif (isinstance(op, (ast.Gt, ast.GtE))
                        and isinstance(left, ast.Name) and left.id == "k"
                        and not isinstance(right, ast.Constant)):
                    found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_query_surface_lives_once():
    """Keeps the copies from growing back: the query, per-shard query,
    table/column and quantize surface is defined once for every index
    layout (the LSH hashes, probes and ranks but answers no query), and
    the "fewer than k candidates -> brute force" rule lives in
    ``gather_top_k`` alone — the one threshold the fallback-boundary
    corpus above pins for every mode."""
    package = Path(repro.__file__).parent
    sources = {path: path.read_text()
               for name in ("index", "cluster", "retrieval")
               for path in (package / name).rglob("*.py")}
    for definition in ("def query_vector(", "def query_many(",
                       "def query_partial_many(", "def query_brute_many(",
                       "def query_table(", "def query_column(",
                       "def enable_quantized(", "def merge("):
        assert sum(text.count(definition)
                   for text in sources.values()) == 1, definition
    fallbacks = [function for text in sources.values()
                 for function in _fallback_comparisons(ast.parse(text))]
    assert fallbacks == ["gather_top_k"]
