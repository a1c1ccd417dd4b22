"""Handle lifecycle: lazy opens, LRU eviction, reopen ≡ first-open.

Eviction is supposed to be *purely a cache decision*: because entries
open memory-mapped, closing and reopening an index must change nothing
a caller can observe except the open/closed flag and the counters.
The property test pins that across layouts (1/2/5 shards) × mmap
on/off with tie-dense corpora — the regime where a reopen that lost
insertion order or shard assignment would scramble a ranking.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from testutil import make_corpus, save_layout, write_catalog

import numpy as np

from repro.catalog import Catalog, CatalogEntry, CatalogHandle
from repro.index import VectorIndex, open_index
from repro.serve import ServeConfig

DIM = 12


def two_entry_handle(tmp_path, n_shards=1, **kwargs) -> CatalogHandle:
    layouts = {}
    for position, name in enumerate(("alpha", "beta", "gamma")):
        keys, vectors = make_corpus(n=45, dim=DIM, seed=position)
        layouts[name] = save_layout(tmp_path, keys, vectors, n_shards,
                                    seed=position, name=name)
    catalog = write_catalog(tmp_path, layouts, default="alpha")
    return CatalogHandle(catalog, ServeConfig(**kwargs))


class TestLazyOpen:
    def test_nothing_opens_until_routed_to(self, tmp_path):
        handle = two_entry_handle(tmp_path)
        assert not handle.open_slots()
        slot = handle.get("beta")
        assert slot.open and slot.stats.opens == 1
        assert [s.name for s in handle.open_slots()] == ["beta"]

    def test_none_routes_to_the_default(self, tmp_path):
        handle = two_entry_handle(tmp_path)
        assert handle.get().name == "alpha"

    def test_unknown_name_is_key_error(self, tmp_path):
        handle = two_entry_handle(tmp_path)
        with pytest.raises(KeyError):
            handle.get("nope")

    def test_repeated_gets_do_not_reopen(self, tmp_path):
        handle = two_entry_handle(tmp_path)
        first = handle.get("alpha")
        again = handle.get("alpha")
        assert again is first and again.index is first.index
        assert first.stats.opens == 1

    def test_empty_catalog_is_rejected_with_a_hint(self, tmp_path):
        with pytest.raises(ValueError, match="catalog add"):
            CatalogHandle(Catalog(root=tmp_path), ServeConfig())

    def test_bad_max_open_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_open"):
            two_entry_handle(tmp_path, max_open=0)


class TestLruEviction:
    def test_cap_evicts_least_recently_used(self, tmp_path):
        handle = two_entry_handle(tmp_path, max_open=2)
        handle.get("alpha")
        handle.get("beta")
        handle.get("alpha")          # beta is now the LRU
        handle.get("gamma")          # over cap: beta goes
        open_names = {slot.name for slot in handle.open_slots()}
        assert open_names == {"alpha", "gamma"}
        assert handle.slots["beta"].stats.evictions == 1
        assert handle.slots["beta"].dispatcher is None

    def test_reopen_counts_a_second_open(self, tmp_path):
        handle = two_entry_handle(tmp_path, max_open=1)
        handle.get("alpha")
        handle.get("beta")
        slot = handle.get("alpha")
        assert slot.stats.opens == 2
        assert slot.stats.evictions == 1

    def test_stats_survive_eviction(self, tmp_path):
        handle = two_entry_handle(tmp_path, max_open=1)
        slot = handle.get("alpha")
        slot.stats.record_queries(7)
        handle.get("beta")
        assert not handle.slots["alpha"].open
        assert handle.slots["alpha"].stats.queries_total == 7

    def test_no_cap_means_no_eviction(self, tmp_path):
        handle = two_entry_handle(tmp_path)
        for name in ("alpha", "beta", "gamma"):
            handle.get(name)
        assert len(handle.open_slots()) == 3

    def test_busy_slots_are_never_evicted(self, tmp_path):
        """A slot whose dispatcher has work in flight rides out the cap
        (temporary over-cap) instead of being closed under a GEMM."""
        class BusyDispatcher:
            n_pending = 1
            n_inflight = 0

        handle = two_entry_handle(tmp_path, max_open=1)
        busy = handle.get("alpha")
        busy.dispatcher = BusyDispatcher()
        other = handle.get("beta")
        assert busy.open and other.open        # over cap, by design
        assert not handle.evict("alpha")       # explicit evict refuses too
        busy.dispatcher = None
        handle.get("gamma")                    # idle now: cap re-asserts
        assert not handle.slots["alpha"].open or \
            not handle.slots["beta"].open

    def test_explicit_evict(self, tmp_path):
        handle = two_entry_handle(tmp_path)
        handle.get("alpha")
        assert handle.evict("alpha") is True
        assert handle.evict("alpha") is False   # already closed


class TestBareIndexWrapper:
    def test_for_index_pins_a_preopened_single_entry(self):
        keys, vectors = make_corpus(n=30, dim=DIM, seed=9)
        index = VectorIndex(dim=DIM, seed=0)
        index.add_batch(keys, vectors)
        handle = CatalogHandle.for_index(index, ServeConfig())
        slot = handle.get()
        assert slot.index is index and slot.pinned
        assert handle.default_name == "default"
        assert len(handle) == 1

    def test_pinned_slot_is_never_evicted(self):
        keys, vectors = make_corpus(n=30, dim=DIM, seed=9)
        index = VectorIndex(dim=DIM, seed=0)
        index.add_batch(keys, vectors)
        handle = CatalogHandle.for_index(index, ServeConfig())
        assert handle.evict("default") is False
        assert handle.get().index is index


class TestStaleCatalogErrors:
    def test_kind_mismatch_names_the_stale_catalog(self, tmp_path):
        keys, vectors = make_corpus(n=30, dim=DIM, seed=1)
        path = save_layout(tmp_path, keys, vectors, 1)
        catalog = Catalog([CatalogEntry(name="x", path=path.name,
                                        kind="table")], root=tmp_path)
        handle = CatalogHandle(catalog, ServeConfig())
        with pytest.raises(ValueError, match="catalog is stale"):
            handle.get("x")

    def test_model_mismatch_names_the_stale_catalog(self, tmp_path):
        keys, vectors = make_corpus(n=30, dim=DIM, seed=1)
        index = VectorIndex(dim=DIM, seed=0)
        index.model_id = "ckpt-new"
        index.add_batch(keys, vectors)
        index.save(tmp_path / "index.npz")
        catalog = Catalog([CatalogEntry(name="x", path="index.npz",
                                        kind="vector",
                                        model_id="ckpt-old")],
                          root=tmp_path)
        with pytest.raises(ValueError, match="catalog is stale"):
            CatalogHandle(catalog, ServeConfig()).get("x")

    def test_missing_layout_propagates_file_not_found(self, tmp_path):
        catalog = Catalog([CatalogEntry(name="x", path="gone.npz",
                                        kind="vector")], root=tmp_path)
        with pytest.raises(FileNotFoundError):
            CatalogHandle(catalog, ServeConfig()).get("x")


class TestReopenEqualsFirstOpen:
    """The eviction-is-only-a-cache-decision property: rankings from a
    reopened slot are identical — keys, bit-equal scores, tie order —
    to its first open *and* to an eager offline open."""

    @pytest.fixture(scope="class")
    def layouts(self, tmp_path_factory):
        """(n_shards, mmap) -> (handle factory inputs) built once; the
        hypothesis examples reuse them."""
        built = {}
        for n_shards in (1, 2, 5):
            tmp = tmp_path_factory.mktemp(f"shards{n_shards}")
            paths = {}
            for position, name in enumerate(("left", "right")):
                keys, vectors = make_corpus(n=60, dim=DIM,
                                            seed=10 + position)
                paths[name] = save_layout(tmp, keys, vectors, n_shards,
                                          seed=10 + position, name=name)
            catalog = write_catalog(tmp, paths, default="left")
            built[n_shards] = (catalog, paths)
        return built

    @settings(max_examples=30, deadline=None)
    @given(n_shards=st.sampled_from([1, 2, 5]), mmap=st.booleans(),
           seed=st.integers(0, 2**16), k=st.integers(1, 8),
           churn=st.lists(st.sampled_from(["left", "right"]),
                          min_size=2, max_size=8))
    def test_rankings_survive_eviction_churn(self, layouts, n_shards, mmap,
                                             seed, k, churn):
        catalog, paths = layouts[n_shards]
        rng = np.random.default_rng(seed)
        queries = rng.standard_normal((3, DIM))
        handle = CatalogHandle(catalog, ServeConfig(mmap=mmap, max_open=1))

        def rankings(name):
            hits_lists = handle.get(name).index.query_many(queries, k=k)
            return [[(hit.key, hit.score) for hit in hits]
                    for hits in hits_lists]

        # Eager offline truth (never evicted, never mmapped).
        want = {name: [[(hit.key, hit.score) for hit in hits]
                       for hits in open_index(path).query_many(queries, k=k)]
                for name, path in paths.items()}
        first = {name: rankings(name) for name in ("left", "right")}
        assert first == want
        # Churn: with max_open=1 every alternation is an evict+reopen.
        for name in churn:
            assert rankings(name) == want[name]
        opens = sum(handle.slots[name].stats.opens
                    for name in ("left", "right"))
        assert opens >= 2, "the churn must actually have reopened"
