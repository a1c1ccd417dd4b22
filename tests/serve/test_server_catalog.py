"""Catalog-routed serving: many named indexes behind one server.

The load-bearing properties, each pinned here end-to-end over real
sockets:

- **Routing**: ``{"index": name}`` answers from exactly that entry —
  rankings identical to that entry's offline ``query_many``, keys never
  bleeding in from any other entry — and an unknown name is a 404 that
  lists what the catalog does have.
- **Back-compat, byte-for-byte**: a request *without* an ``"index"``
  field against a catalog server returns the very same response bytes
  (headers and body) the pre-catalog bare-index server returns for it.
- **Observability**: ``GET /indexes`` lists every entry with its
  open/closed state; ``GET /stats`` grows per-index sections; the
  aggregate sections keep their old meaning.
- **Eviction under load**: with ``max_open=1``, alternating traffic
  across two entries forces open/evict churn mid-flight without ever
  changing a ranking.
"""

import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from serveutil import (
    http_request,
    offline_ranking,
    post_query,
    served_ranking,
)

from repro.catalog import Catalog, CatalogEntry
from repro.index import ColumnIndex, TableIndex, open_index, save_index

DIM = 16

#: Entry name -> (index class, key prefix, corpus size, seed).  Key
#: prefixes are disjoint so any cross-index bleed is instantly visible
#: in the returned keys, not just in scores.
ENTRIES = {
    "tables": (TableIndex, "tbl", 48, 3),
    "columns": (ColumnIndex, "col", 72, 4),
}


def build_catalog(root: Path) -> Catalog:
    """A two-entry catalog — one table-level, one column-level index —
    with disjoint key namespaces, saved under ``root``."""
    catalog = Catalog(root=root)
    for name, (cls, prefix, n, seed) in ENTRIES.items():
        rng = np.random.default_rng(seed)
        index = cls(DIM, seed=seed)
        index.model_id = f"ckpt-{name}"
        keys = [f"{prefix}{i:04d}" for i in range(n)]
        index.add_batch(keys, rng.standard_normal((n, DIM)),
                        metas=[{} for _ in keys])
        save_index(index, root / f"{name}.npz")
        catalog.add(CatalogEntry(name=name, path=f"{name}.npz",
                                 kind=index.kind, model_id=index.model_id,
                                 default=name == "tables"))
    catalog.save()
    return catalog


@pytest.fixture(scope="module")
def catalog_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("catalog")
    build_catalog(root)
    return root


@pytest.fixture(scope="module")
def queries():
    return np.random.default_rng(9).standard_normal((5, DIM))


def offline_want(catalog_dir, name, queries, k):
    index = open_index(catalog_dir / f"{name}.npz")
    return [offline_ranking(hits) for hits in index.query_many(queries, k=k)]


def server_thread(catalog_dir, **knobs):
    from repro.serve import ServeConfig, ServerThread

    knobs.setdefault("max_wait_ms", 1.0)
    return ServerThread(Catalog.load(catalog_dir),
                        config=ServeConfig(**knobs))


class TestRouting:
    def test_each_entry_matches_its_offline_ranking(self, catalog_dir,
                                                    queries):
        with server_thread(catalog_dir) as handle:
            for name in ENTRIES:
                want = offline_want(catalog_dir, name, queries, k=4)
                status, payload = post_query(
                    handle.port, {"vectors": queries.tolist(), "k": 4,
                                  "index": name})
                assert status == 200
                got = [served_ranking(result["hits"])
                       for result in payload["results"]]
                assert got == want, f"routed rankings diverged for {name!r}"

    def test_absent_index_field_hits_the_default(self, catalog_dir, queries):
        want = offline_want(catalog_dir, "tables", queries, k=3)
        with server_thread(catalog_dir) as handle:
            status, payload = post_query(
                handle.port, {"vectors": queries.tolist(), "k": 3})
        assert status == 200
        assert [served_ranking(r["hits"]) for r in payload["results"]] == want

    def test_keys_never_bleed_between_entries(self, catalog_dir, queries):
        with server_thread(catalog_dir) as handle:
            for name, (_cls, prefix, _n, _seed) in ENTRIES.items():
                _status, payload = post_query(
                    handle.port, {"vectors": queries.tolist(), "k": 8,
                                  "index": name})
                keys = [hit["key"] for result in payload["results"]
                        for hit in result["hits"]]
                assert keys and all(key.startswith(prefix) for key in keys)

    def test_unknown_index_is_404_naming_the_catalog(self, catalog_dir,
                                                     queries):
        with server_thread(catalog_dir) as handle:
            status, payload = post_query(
                handle.port, {"vector": queries[0].tolist(), "index": "nope"})
        assert status == 404
        assert "'nope'" in payload["error"]
        for name in ENTRIES:
            assert repr(name) in payload["error"]

    def test_non_string_index_is_400(self, catalog_dir, queries):
        with server_thread(catalog_dir) as handle:
            for bad in (7, "", ["tables"]):
                status, payload = post_query(
                    handle.port, {"vector": queries[0].tolist(),
                                  "index": bad})
                assert status == 400
                assert "non-empty string" in payload["error"]

    def test_dim_validates_against_the_routed_entry(self, tmp_path):
        """Entries of different dims: the 'wrong dim' error must name
        the *routed* index's dim, proving validation happens after
        routing."""
        catalog = Catalog(root=tmp_path)
        for name, dim in (("narrow", 4), ("wide", 12)):
            from repro.index import VectorIndex

            index = VectorIndex(dim, seed=1)
            rng = np.random.default_rng(1)
            index.add_batch([f"{name}{i}" for i in range(9)],
                            rng.standard_normal((9, dim)))
            save_index(index, tmp_path / f"{name}.npz")
            catalog.add(CatalogEntry(name=name, path=f"{name}.npz",
                                     kind="vector"))
        catalog.save()
        from repro.serve import ServeConfig, ServerThread

        with ServerThread(catalog,
                          config=ServeConfig(max_wait_ms=1.0)) as handle:
            status, payload = post_query(
                handle.port, {"vector": [0.0] * 4, "index": "wide"})
            assert status == 400 and "expects 12" in payload["error"]
            status, _payload = post_query(
                handle.port, {"vector": [0.0] * 4, "index": "narrow"})
            assert status == 200


class TestWireBackCompat:
    def raw_query(self, port: int, body: bytes) -> bytes:
        """One request over a raw socket, full response bytes back —
        headers included, so the comparison is truly byte-for-byte."""
        import socket

        head = (f"POST /query HTTP/1.1\r\nHost: x\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode()
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=30) as sock:
            sock.sendall(head + body)
            response = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return response
                response += chunk

    def test_nameless_request_is_byte_identical_to_bare_serve(
            self, catalog_dir, queries):
        """The PR 5 regression pin: a client that has never heard of
        catalogs sends the same bytes and receives the same bytes,
        whether the server wraps a bare index or a catalog whose
        default is that index."""
        from repro.serve import ServeConfig, ServerThread

        bodies = [json.dumps({"vector": queries[0].tolist(),
                              "k": 5}).encode(),
                  json.dumps({"vectors": queries.tolist(), "k": 3,
                              "excludes": [None] * len(queries)}).encode()]
        bare = open_index(catalog_dir / "tables.npz", mmap=True)
        with ServerThread(bare,
                          config=ServeConfig(max_wait_ms=1.0)) as bare_handle:
            bare_responses = [self.raw_query(bare_handle.port, body)
                              for body in bodies]
        with server_thread(catalog_dir) as cat_handle:
            cat_responses = [self.raw_query(cat_handle.port, body)
                             for body in bodies]
        assert bare_responses == cat_responses

    def test_bare_server_wire_shape_is_unchanged(self, catalog_dir, queries):
        """The response body is exactly ``render_response(200,
        json_body({"hits": format_hits(offline)}))`` — the wire shape
        PR 5 promised, reconstructed independently of the server."""
        from repro.serve import ServeConfig, ServerThread
        from repro.serve.protocol import format_hits, json_body

        index = open_index(catalog_dir / "tables.npz", mmap=True)
        offline = open_index(catalog_dir / "tables.npz")
        want_hits = offline.query_many(queries[:1], k=5)[0]
        want_body = json_body({"hits": format_hits(want_hits)})
        body = json.dumps({"vector": queries[0].tolist(), "k": 5}).encode()
        with ServerThread(index,
                          config=ServeConfig(max_wait_ms=1.0)) as handle:
            raw = self.raw_query(handle.port, body)
        assert raw.partition(b"\r\n\r\n")[2] == want_body


class TestIndexesAndStats:
    def test_indexes_lists_entries_without_opening_them(self, catalog_dir):
        with server_thread(catalog_dir) as handle:
            status, data = http_request(handle.port, "GET", "/indexes")
            assert http_request(handle.port, "POST", "/indexes",
                                b"{}")[0] == 405
        assert status == 200
        listing = {item["name"]: item for item in json.loads(data)["indexes"]}
        assert set(listing) == set(ENTRIES)
        # Boot opens the default entry only; listing must not have
        # force-opened the other one.
        assert listing["tables"]["open"] is True
        assert listing["tables"]["default"] is True
        assert listing["tables"]["entries"] == ENTRIES["tables"][2]
        assert listing["columns"]["open"] is False
        assert listing["columns"]["entries"] is None
        assert listing["columns"]["model_id"] == "ckpt-columns"

    def test_stats_grows_per_index_sections(self, catalog_dir, queries):
        with server_thread(catalog_dir) as handle:
            post_query(handle.port, {"vectors": queries.tolist(), "k": 2})
            post_query(handle.port, {"vector": queries[0].tolist(),
                                     "index": "columns"})
            _status, data = http_request(handle.port, "GET", "/stats")
        snapshot = json.loads(data)
        per_index = snapshot["indexes"]
        assert set(per_index) == set(ENTRIES)
        assert per_index["tables"]["queries"] == len(queries)
        assert per_index["tables"]["requests"] == 1
        assert per_index["tables"]["opens"] == 1
        assert per_index["columns"]["queries"] == 1
        assert per_index["columns"]["batch"]["dispatched"] >= 1
        # Aggregates keep meaning "all traffic".
        assert snapshot["queries_total"] == len(queries) + 1
        assert snapshot["batch"]["dispatched"] >= 2
        assert snapshot["dispatcher"]["max_batch"] == 32

    def test_healthz_reports_default_and_catalog_size(self, catalog_dir):
        with server_thread(catalog_dir) as handle:
            _status, data = http_request(handle.port, "GET", "/healthz")
        payload = json.loads(data)
        assert payload["kind"] == "table"
        assert payload["model_id"] == "ckpt-tables"
        assert payload["indexes"] == len(ENTRIES)


class TestEvictionUnderLoad:
    def test_alternating_traffic_with_cap_one_keeps_rankings(
            self, catalog_dir, queries):
        """max_open=1 under concurrent two-index traffic: every response
        still matches its entry's offline ranking, and /stats shows the
        churn actually happened."""
        want = {name: offline_want(catalog_dir, name, queries, k=5)
                for name in ENTRIES}
        errors: list[str] = []

        def client(name: str, rounds: int) -> None:
            for _ in range(rounds):
                status, payload = post_query(
                    handle.port, {"vectors": queries.tolist(), "k": 5,
                                  "index": name})
                if status != 200:
                    errors.append(f"{name}: status {status}")
                    return
                got = [served_ranking(r["hits"])
                       for r in payload["results"]]
                if got != want[name]:
                    errors.append(f"{name}: ranking diverged")
                    return

        with server_thread(catalog_dir, max_open=1) as handle:
            threads = [threading.Thread(target=client, args=(name, 8))
                       for name in ENTRIES for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            _status, data = http_request(handle.port, "GET", "/stats")
        assert not errors, errors
        per_index = json.loads(data)["indexes"]
        total_evictions = sum(section["evictions"]
                              for section in per_index.values())
        total_opens = sum(section["opens"]
                          for section in per_index.values())
        assert total_evictions >= 1, per_index
        assert total_opens >= 3, per_index


class TestCatalogServeCli:
    def test_cli_serves_a_catalog_end_to_end(self, catalog_dir, queries):
        """`repro.cli serve CATALOG_DIR`: boots, prints the catalog
        banner, routes queries by name, and drains on SIGTERM."""
        want = offline_want(catalog_dir, "columns", queries[:2], k=3)
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(Path(__file__).resolve().parents[2] / "src")
                             + os.pathsep + env.get("PYTHONPATH", ""))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(catalog_dir),
             "--port", "0", "--max-wait-ms", "1", "--max-open", "1"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            banner = process.stdout.readline()
            assert "Serving catalog of 2 indexes" in banner, banner
            assert "default 'tables'" in banner
            port = int(banner.split("http://127.0.0.1:")[1].split()[0])
            status, data = http_request(port, "GET", "/indexes")
            assert status == 200
            assert len(json.loads(data)["indexes"]) == 2
            status, payload = post_query(
                port, {"vectors": queries[:2].tolist(), "k": 3,
                       "index": "columns"})
            assert status == 200
            assert [served_ranking(r["hits"])
                    for r in payload["results"]] == want
        finally:
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=30)
        assert process.returncode == 0, stderr
        assert "Draining" in stdout

    def test_cli_refuses_empty_and_broken_catalogs(self, capsys, tmp_path):
        from repro.cli import main

        empty = tmp_path / "empty"
        assert main(["catalog", "init", str(empty)]) == 0
        assert main(["serve", str(empty)]) == 2
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "catalog.json").write_text("{nope")
        assert main(["serve", str(broken)]) == 2
        err = capsys.readouterr().err
        assert "empty catalog" in err and "not valid JSON" in err

    def test_cli_refuses_catalog_with_missing_default_layout(self, capsys,
                                                             tmp_path):
        """A catalog whose default entry's layout is gone must fail at
        boot with a clear error, not 500 on the first query."""
        from repro.cli import main

        catalog = Catalog(root=tmp_path)
        catalog.add(CatalogEntry(name="gone", path="gone.npz",
                                 kind="vector"))
        catalog.save()
        assert main(["serve", str(tmp_path)]) == 2
        assert "no index file" in capsys.readouterr().err
