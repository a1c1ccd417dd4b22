"""Per-worker independence of catalog handles — the invariant the
pre-fork tier (``serve --workers N``, :mod:`repro.serve.prefork`)
leans on.

Each pre-fork worker builds its own :class:`CatalogHandle` after the
fork, so caches, dispatchers, LRU-eviction state, and counters must be
strictly per-handle: nothing one "worker" does may leak into another.
These tests run two handles/servers over the *same saved layout* in
one process — a strictly harsher setting than fork (where copy-on-
write separates even accidental sharing) — and pin that the only thing
the two have in common is the read-only bytes on disk.
"""

from __future__ import annotations

import json

from catutil import make_corpus, save_layout, write_catalog

from repro.catalog import Catalog, CatalogHandle
from repro.serve import ServeConfig, ServerThread

from urllib import request as urllib_request

DIM = 12


def _post_query(port: int, payload: dict) -> dict:
    req = urllib_request.Request(
        f"http://127.0.0.1:{port}/query",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib_request.urlopen(req, timeout=30) as response:
        return json.loads(response.read())


def _stats(port: int) -> dict:
    with urllib_request.urlopen(f"http://127.0.0.1:{port}/stats",
                                timeout=30) as response:
        return json.loads(response.read())


def _two_handles(tmp_path) -> tuple[CatalogHandle, CatalogHandle]:
    keys, vectors = make_corpus(n=60, dim=DIM, seed=5)
    path = save_layout(tmp_path, keys, vectors, 2, seed=5, name="shared")
    catalog = write_catalog(tmp_path, {"shared": path}, default="shared")
    return (CatalogHandle(Catalog.load(tmp_path), ServeConfig()),
            CatalogHandle(Catalog.load(tmp_path), ServeConfig()))


class TestHandleIndependence:
    def test_slots_and_state_are_disjoint_objects(self, tmp_path):
        a, b = _two_handles(tmp_path)
        slot_a = a.get("shared")
        assert slot_a.open
        # Opening through A opened nothing in B.
        assert not b.open_slots()
        slot_b = b.get("shared")
        assert slot_a is not slot_b
        assert slot_a.index is not slot_b.index
        assert slot_a.stats is not slot_b.stats
        # ...while both serve the same bytes.
        assert len(slot_a.index) == len(slot_b.index)

    def test_eviction_in_one_handle_leaves_the_other_open(self, tmp_path):
        """One worker's LRU decision must never close a sibling's
        index: evicting in handle A leaves handle B's slot open and
        serving."""
        a, b = _two_handles(tmp_path)
        slot_a = a.get("shared")
        slot_b = b.get("shared")
        assert a.evict("shared")
        assert not slot_a.open
        assert slot_b.open
        assert len(slot_b.index) == 60
        # And reopening in A is A's own second open, invisible to B.
        a.get("shared")
        assert slot_a.stats.opens == 2
        assert slot_b.stats.opens == 1


class TestServedWorkerIsolation:
    def test_caches_and_counters_never_leak_across_workers(self, tmp_path):
        """Two in-process servers over one saved layout — the same
        shape as two pre-fork workers mmapping one index.  An exact
        repeat inside worker A hits A's cache; the *same* query's
        first arrival at worker B is a miss: no shared cache, no
        shared counters, no cross-talk."""
        keys, vectors = make_corpus(n=60, dim=DIM, seed=7)
        path = save_layout(tmp_path, keys, vectors, 2, seed=7,
                           name="shared")
        from repro.index import open_index

        query = {"vector": vectors[0].tolist(), "k": 5}
        config = ServeConfig(max_wait_ms=0.5)
        with ServerThread(open_index(path), config=config) as worker_a, \
                ServerThread(open_index(path), config=config) as worker_b:
            first_a = _post_query(worker_a.port, query)
            repeat_a = _post_query(worker_a.port, query)
            first_b = _post_query(worker_b.port, query)

            assert first_a == repeat_a == first_b  # same bytes served

            cache_a = next(iter(
                _stats(worker_a.port)["indexes"].values()))["cache"]
            cache_b = next(iter(
                _stats(worker_b.port)["indexes"].values()))["cache"]
        # A: one miss then one exact hit.  B: its OWN first miss — a
        # shared cache would have made it a hit.
        assert cache_a["misses"] == 1 and cache_a["exact_hits"] == 1
        assert cache_b["misses"] == 1 and cache_b["exact_hits"] == 0
        # Counters are per-worker too: neither saw the other's traffic.
        assert cache_a["exact_hits"] + cache_a["misses"] == 2
        assert cache_b["exact_hits"] + cache_b["misses"] == 1
