"""Every query front door against the one slow oracle in ``reference.py``.

The serving stack has one read path (hash → probe → rank → global
brute-force fallback → merge) reached through many front doors: the
offline layouts, the result cache, the HTTP server (batch and one-row
bodies, eager and mmap, int8 shortlist), catalog routing, a pre-fork
fleet and the cluster coordinator, alone and behind the server.  Each
front door here answers the same (query, k, exclude) cases and must
return the oracle's keys in the oracle's order, scores within 1e-9 —
and scores equal (``==``) to the ``single`` mode's, so every mode stays
bit-identical to the serial path.  The corpora aim at the three places
a ranking can silently go wrong: generic gaussians, dense exact-score
ties (tie-break and cross-shard merge order) and ``k`` pinned around
the candidate total (the fallback threshold).  Every corpus carries one
tombstone; hypothesis draws further corpora for the in-process modes.

A new front door is one more mode here, not one more pairwise suite.
"""

from __future__ import annotations

import ast
import functools
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np
import pytest
from dispatchutil import cached, dispatch
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from preforkutil import PreforkFleet
from reference import reference_candidates, reference_top_k
from testutil import post_query, ranked, write_catalog

import repro
from repro.cluster import ClusterHarness, split_layout
from repro.index import IndexSpec, ShardedIndex, VectorIndex, open_index
from repro.retrieval import CosineLSH
from repro.serve import ServeConfig, ServerThread

DIM = 12
SEED = 5
#: Index of the entry every corpus removes after the bulk insert.
REMOVED = 3


def _keys(n: int) -> list[str]:
    # Shuffled, so key order is not insertion order: a tie broken by
    # insertion id instead of by key shows.
    return [f"t{i:05d}" for i in np.random.default_rng(n).permutation(n)]


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
                ks = boundary_ks(keys, vectors, query, exclude)
            else:
                ks = {1, 4, len(keys) + 5}
            cases.extend((query, k, exclude) for k in sorted(ks))
    return keys, vectors, cases


def boundary_ks(keys, vectors, query, exclude) -> set[int]:
    """``k`` one below, at and one above the query's candidate total."""
    total = len(reference_candidates(live_items(keys, vectors), planes(),
                                     query.tolist(), exclude))
    return {max(1, total - 1), max(1, total), total + 1}


def live_items(keys, vectors) -> list[tuple[str, list[float]]]:
    return [(key, vector.tolist())
            for position, (key, vector) in enumerate(zip(keys, vectors))
            if position != REMOVED]


@functools.cache
def planes() -> list:
    return CosineLSH(DIM, seed=SEED).planes.tolist()


def reference_rankings(keys, vectors, cases) -> list[list[tuple[str, float]]]:
    items = live_items(keys, vectors)
    return [reference_top_k(items, planes(), query.tolist(), k, exclude)
            for query, k, exclude in cases]


@functools.cache
def expected(name: str) -> list[list[tuple[str, float]]]:
    return reference_rankings(*corpus(name))


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


def save(keys, vectors, n_shards: int | None, tmp_path: Path,
         quantize: bool = False) -> Path:
    index = build(keys, vectors, n_shards)
    if quantize:
        index.quantize()
    return index.save(tmp_path / ("layout.npz" if n_shards is None
                                  else "layout"))


def via_query_many(index, jobs=None):
    def search(matrix, k, excludes):
        return [ranked(hits) for hits in
                index.query_many(matrix, k=k, excludes=excludes, jobs=jobs)]
    return search


def via_http(port: int, route: dict | None = None, rows: bool = True):
    """``search`` over ``POST /query``: each batch as one ``vectors``
    body, then (``rows``) each row as its own ``vector`` body over a
    fresh connection, which must answer the same; ``route`` adds fields
    (``{"index": name}``) to every body."""
    route = route or {}

    def search(matrix, k, excludes):
        status, payload = post_query(port, {"vectors": matrix.tolist(),
                                            "k": k, "excludes": excludes,
                                            **route})
        assert status == 200, payload
        batch = [ranked(result["hits"]) for result in payload["results"]]
        for row, exclude, want in zip(matrix, excludes, batch):
            if rows:
                status, payload = post_query(port, {
                    "vector": row.tolist(), "k": k, "exclude": exclude,
                    **route})
                assert status == 200, payload
                assert ranked(payload["hits"]) == want
        return batch
    return search


def served(target, **knobs):
    return ServerThread(target, config=ServeConfig(**knobs))


@contextmanager
def open_mode(mode: str, keys, vectors, tmp_path):
    """Yield ``search(matrix, k, excludes) -> [[(key, score), ...]]``
    for one front door over the corpus (``prefork`` is the ``fleet``
    fixture instead: one boot serves every corpus)."""
    if mode == "single-rows":
        # One query_vector call per row must equal the one Q-row call
        # of "single".
        index = build(keys, vectors, None)

        def search(matrix, k, excludes):
            return [ranked(index.query_vector(row, k, exclude=exclude))
                    for row, exclude in zip(matrix, excludes)]
        yield search
    elif mode == "single":
        yield via_query_many(build(keys, vectors, None))
    elif mode.startswith("sharded"):
        _, n_shards, jobs = mode.split("-")
        yield via_query_many(build(keys, vectors, int(n_shards)),
                             jobs=int(jobs))
    elif mode == "mmap":
        index = open_index(save(keys, vectors, 2, tmp_path), mmap=True)
        assert all(not shard.lsh.vector(0).flags.writeable
                   for shard in index.shards if len(shard))
        yield via_query_many(index)
    elif mode == "mmap-single":
        yield via_query_many(open_index(save(keys, vectors, None, tmp_path),
                                        mmap=True))
    elif mode == "quantized":
        index = build(keys, vectors, None)
        index.quantize()
        index.enable_quantized()
        yield via_query_many(index)
    elif mode == "quantized-mmap":
        index = open_index(save(keys, vectors, 2, tmp_path, quantize=True),
                           mmap=True, quantized=True)
        assert index.use_quantized
        yield via_query_many(index)
    elif mode == "cached":
        # A cache smaller than a batch: the replay mixes hits with
        # misses and evicts as it goes.
        dispatcher = cached(build(keys, vectors, 2), 4)
        counters = dispatcher.counters
        rows = 0

        def search(matrix, k, excludes):
            nonlocal rows
            miss, hit = (dispatch(dispatcher, matrix, k, excludes)
                         for _ in range(2))
            assert miss == hit
            rows += 2 * len(matrix)
            assert counters.exact_hits + counters.misses == rows
            return [ranked(hits) for hits in hit]
        yield search
        assert counters.exact_hits > 0
    elif mode == "cluster":
        paths = split_layout(build(keys, vectors, 5), tmp_path / "cluster", 2)
        with ClusterHarness(paths) as cluster:
            yield via_query_many(cluster.connect(retries=1))
    elif mode == "served-eager":
        # Cache off: the one-row bodies rank afresh too.
        with served(open_index(save(keys, vectors, None, tmp_path)),
                    mmap=False, cache_size=0) as server:
            yield via_http(server.port)
    elif mode == "served-mmap":
        # Cache on: the one-row bodies replay the batch's entries.
        with served(open_index(save(keys, vectors, 5, tmp_path),
                               mmap=True)) as server:
            yield via_http(server.port)
    elif mode == "served-quantized":
        target = open_index(save(keys, vectors, 3, tmp_path, quantize=True),
                            mmap=False, quantized=True)
        assert target.use_quantized
        with served(target) as server:
            yield via_http(server.port)
    elif mode == "catalog":
        # The corpus is routed by name; the default entry is a decoy
        # with its own keys, and max_open=1 evicts one entry per switch.
        root = tmp_path / "catalog"
        root.mkdir()
        decoy = VectorIndex(dim=DIM, seed=SEED)
        decoy.add_batch([f"d{i}" for i in range(8)],
                        np.random.default_rng(0).standard_normal((8, DIM)))
        catalog = write_catalog(root, {
            "decoy": decoy.save(root / "decoy.npz"),
            "corpus": build(keys, vectors, 2).save(root / "corpus")},
            default="decoy")
        with served(catalog, max_open=1) as server:
            routed = via_http(server.port, {"index": "corpus"}, rows=False)

            def search(matrix, k, excludes):
                status, payload = post_query(
                    server.port, {"vector": matrix[0].tolist(), "k": k})
                assert status == 200, payload
                assert all(key.startswith("d")
                           for key, _score in ranked(payload["hits"]))
                return routed(matrix, k, excludes)
            yield search
    elif mode.startswith("cluster-served"):
        n_shards, n_servers = map(int, mode.split("-")[2:])
        path = save(keys, vectors, None if n_shards == 1 else n_shards,
                    tmp_path)
        paths = (split_layout(path, tmp_path / "split", n_servers)
                 if n_shards > 1 else [path])
        with ClusterHarness(paths) as cluster, \
                served(cluster.connect(retries=1)) as server:
            yield via_http(server.port, rows=False)
    else:
        raise AssertionError(mode)


#: The modes that run in this process without a socket, which the
#: hypothesis-drawn corpora also go through.
IN_PROCESS = ["single-rows", "single", "sharded-1-1", "sharded-2-1",
              "sharded-2-2", "sharded-5-1", "sharded-5-2", "sharded-5-4",
              "mmap", "mmap-single", "quantized", "quantized-mmap",
              "cached"]
#: ``(n_shards, n_servers)``: every split of the shard counts.
CLUSTER_SHAPES = [(1, 1), (2, 1), (2, 2), (5, 1), (5, 2), (5, 5)]
MODES = IN_PROCESS + [
    "cluster", "served-eager", "served-mmap", "served-quantized",
    "catalog", "prefork",
    *(f"cluster-served-{n_shards}-{n_servers}"
      for n_shards, n_servers in CLUSTER_SHAPES)]


def assert_mode_matches(door, cases, want, serial=None) -> list:
    """Run ``cases`` through ``door`` (a context yielding ``search``)
    one batch per ``k``; every ranking must be the oracle's (``want``)
    and, given the ``single`` mode's rankings (``serial``), equal to
    them score for score.  Returns the rankings in case order."""
    by_k: dict[int, list[int]] = {}
    for position, (_query, k, _exclude) in enumerate(cases):
        by_k.setdefault(k, []).append(position)
    got = [None] * len(cases)
    with door as search:
        for k, positions in by_k.items():
            rankings = search(np.stack([cases[p][0] for p in positions]), k,
                              [cases[p][2] for p in positions])
            for position, ranking in zip(positions, rankings):
                got[position] = ranking
    for position, (ranking, reference) in enumerate(zip(got, want)):
        assert [key for key, _score in ranking] \
            == [key for key, _score in reference], (cases[position][1],
                                                    position)
        assert [score for _key, score in ranking] == pytest.approx(
            [score for _key, score in reference], abs=1e-9)
        if serial is not None:
            assert ranking == serial[position], position
    return got


CORPORA = ["random", "duplicate-ties", "fallback-boundary"]


@functools.cache
def serial_rankings(name: str) -> list:
    keys, vectors, cases = corpus(name)
    return assert_mode_matches(open_mode("single", keys, vectors, None),
                               cases, expected(name))


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """``serve --workers 2`` over a catalog with each corpus as a
    two-shard entry of its name, booted once for all three; both
    workers must answer, and SIGTERM must drain them."""
    root = tmp_path_factory.mktemp("fleet")
    write_catalog(root, {name: build(*corpus(name)[:2], 2).save(root / name)
                         for name in CORPORA}, default=CORPORA[0])
    with PreforkFleet(root, 2) as fleet:
        seen = fleet.sample_workers()
        assert len(seen) == 2, f"only saw workers {seen}"
        yield fleet
        code, stdout, stderr = fleet.stop()
    assert code == 0, stderr
    assert "All 2 workers drained" in stdout


@pytest.mark.parametrize("name", CORPORA)
@pytest.mark.parametrize("mode", MODES)
def test_mode_matches_the_oracle(mode, name, tmp_path, request):
    keys, vectors, cases = corpus(name)
    if mode == "prefork":
        door = nullcontext(via_http(request.getfixturevalue("fleet").port,
                                    {"index": name}))
    else:
        door = open_mode(mode, keys, vectors, tmp_path)
    assert_mode_matches(door, cases, expected(name),
                        serial=serial_rankings(name))


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_drawn_corpus_matches_the_oracle(data, tmp_path_factory):
    """Random corpora (size, duplicate density, seed) through every
    in-process mode: corpus rows, a 1e-9 jitter of one (a near-duplicate
    that must not share its cache entry), a fresh gaussian; per query an
    exclude (none, a live key, the tombstone, an absent key) and ``k``
    at 1, around the candidate total and past the corpus."""
    seed = data.draw(st.integers(0, 2**16), label="seed")
    # At most 32 entries: the int8 shortlist (at least k + 32) then holds
    # every candidate, so the quantized modes' equality is a guarantee
    # rather than a likelihood hypothesis could search past.  No corpus
    # here has a candidate pool that outgrows its shortlist (dim-12
    # blocking keeps pools small); a pruning shortlist's recall is
    # pinned by tests/index/test_quantized.py's recall monitor.
    n = data.draw(st.integers(REMOVED + 1, 32), label="n")
    dup_every = data.draw(st.sampled_from([1, 2, 3]), label="dup_every")
    rng = np.random.default_rng(seed)
    vectors = np.repeat(rng.standard_normal((-(-n // dup_every), DIM)),
                        dup_every, axis=0)[:n]
    keys = _keys(n)
    rows = vectors[rng.integers(0, n, size=2)]
    queries = np.vstack([rows, rows[:1] + rng.normal(scale=1e-9, size=DIM),
                         rng.standard_normal((1, DIM))])
    cases = []
    for query in queries:
        exclude = data.draw(st.sampled_from(
            [None, keys[0], keys[REMOVED], "absent"]), label="exclude")
        ks = boundary_ks(keys, vectors, query, exclude) | {1, n + 2}
        cases.extend((query, k, exclude) for k in sorted(ks))
    want = reference_rankings(keys, vectors, cases)
    serial = assert_mode_matches(open_mode("single", keys, vectors, None),
                                 cases, want)
    for mode in IN_PROCESS:
        door = open_mode(mode, keys, vectors, tmp_path_factory.mktemp(mode))
        assert_mode_matches(door, cases, want, serial=serial)


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


def test_test_helpers_live_once():
    """Keeps the helper copies from growing back: the corpus, layout,
    ranking and HTTP helpers every suite shares are defined once under
    ``tests/`` (in ``testutil.py``), and a suite that needs another
    shape passes arguments instead of copying them."""
    sources = [path.read_text()
               for path in Path(__file__).parent.rglob("*.py")]
    for helper in ("make_corpus", "save_layout", "ranked", "http_request"):
        assert sum(text.count(f"def {helper}(")
                   for text in sources) == 1, helper
