"""`repro.cli catalog init/add/list`: the catalog's command-line face.

`add` is the interesting one: it reads the entry's kind and checkpoint
from the saved layout itself (manifest/payload peek, no vector data),
so a catalog written by the CLI can never disagree with the indexes it
names — and every failure keeps the stderr + exit-2 contract the other
lifecycle commands follow.
"""

import json

import pytest
from testutil import make_corpus, save_layout

from repro.catalog import CATALOG_NAME, Catalog
from repro.cli import main
from repro.index import MANIFEST_NAME, VectorIndex


@pytest.fixture()
def saved_index(tmp_path):
    keys, vectors = make_corpus(n=30, dim=8, seed=2)
    return save_layout(tmp_path, keys, vectors, 1)


class TestInit:
    def test_init_writes_an_empty_catalog(self, tmp_path, capsys):
        target = tmp_path / "cat"
        assert main(["catalog", "init", str(target)]) == 0
        assert "Initialised empty catalog" in capsys.readouterr().out
        assert len(Catalog.load(target)) == 0

    def test_init_refuses_to_clobber(self, tmp_path, capsys):
        target = tmp_path / "cat"
        assert main(["catalog", "init", str(target)]) == 0
        assert main(["catalog", "init", str(target)]) == 2
        assert "already exists" in capsys.readouterr().err


class TestAdd:
    def test_add_records_kind_and_model_from_the_layout(self, tmp_path,
                                                        capsys):
        keys, vectors = make_corpus(n=24, dim=8, seed=3)
        index = VectorIndex(dim=8, seed=0)
        index.model_id = "ckpt-xyz"
        index.add_batch(keys, vectors)
        index.save(tmp_path / "vecs.npz")
        assert main(["catalog", "init", str(tmp_path)]) == 0
        assert main(["catalog", "add", str(tmp_path), "--name", "vecs",
                     "--path", "vecs.npz", "--default"]) == 0
        out = capsys.readouterr().out
        assert "Added 'vecs'" in out and "(default)" in out
        entry = Catalog.load(tmp_path).entries["vecs"]
        assert entry.kind == "vector"
        assert entry.model_id == "ckpt-xyz"
        assert entry.default

    def test_add_to_sharded_layout_and_second_entry(self, tmp_path):
        keys, vectors = make_corpus(n=40, dim=8, seed=4)
        save_layout(tmp_path, keys, vectors, 3, name="sharded")
        save_layout(tmp_path, keys, vectors, 1, name="single")
        assert main(["catalog", "init", str(tmp_path)]) == 0
        assert main(["catalog", "add", str(tmp_path), "--name", "a",
                     "--path", "sharded"]) == 0
        assert main(["catalog", "add", str(tmp_path), "--name", "b",
                     "--path", "single.npz"]) == 0
        catalog = Catalog.load(tmp_path)
        assert set(e.name for e in catalog) == {"a", "b"}
        assert catalog.default_name == "a"   # first entry, no explicit flag

    def test_default_flag_moves_the_default(self, tmp_path, saved_index):
        assert main(["catalog", "init", str(tmp_path)]) == 0
        assert main(["catalog", "add", str(tmp_path), "--name", "a",
                     "--path", "index.npz", "--default"]) == 0
        keys, vectors = make_corpus(n=20, dim=8, seed=5)
        save_layout(tmp_path, keys, vectors, 1, name="other")
        assert main(["catalog", "add", str(tmp_path), "--name", "b",
                     "--path", "other.npz", "--default"]) == 0
        assert Catalog.load(tmp_path).default_name == "b"

    def test_add_without_init_hints_at_init(self, tmp_path, capsys):
        assert main(["catalog", "add", str(tmp_path / "nope"),
                     "--name", "x", "--path", "y.npz"]) == 2
        assert "catalog init" in capsys.readouterr().err

    def test_add_missing_layout_is_exit_2_with_resolution_hint(
            self, tmp_path, capsys):
        assert main(["catalog", "init", str(tmp_path)]) == 0
        assert main(["catalog", "add", str(tmp_path), "--name", "x",
                     "--path", "gone.npz"]) == 2
        err = capsys.readouterr().err
        assert "cannot add 'x'" in err
        assert "resolve against the catalog directory" in err

    def test_add_duplicate_name_is_exit_2(self, tmp_path, saved_index,
                                          capsys):
        assert main(["catalog", "init", str(tmp_path)]) == 0
        args = ["catalog", "add", str(tmp_path), "--name", "x",
                "--path", "index.npz"]
        assert main(args) == 0
        assert main(args) == 2
        assert "already has an entry named" in capsys.readouterr().err

    def test_add_corrupt_layout_is_exit_2(self, tmp_path, capsys):
        assert main(["catalog", "init", str(tmp_path)]) == 0
        (tmp_path / "junk.npz").write_bytes(b"not an archive")
        assert main(["catalog", "add", str(tmp_path), "--name", "x",
                     "--path", "junk.npz"]) == 2
        assert "cannot add 'x'" in capsys.readouterr().err

    def test_add_layout_that_will_not_open_is_exit_2(self, tmp_path, capsys):
        """A manifest whose n_shards disagrees with its shard list is
        refused at add time, with the reason open_index would give."""
        keys, vectors = make_corpus(n=20, dim=8, seed=6)
        path = save_layout(tmp_path, keys, vectors, 2, name="lay")
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["n_shards"] = 3
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        assert main(["catalog", "init", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["catalog", "add", str(tmp_path), "--name", "a",
                     "--path", "lay"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "cannot add 'a'" in err and "n_shards=3" in err
        assert "a" not in Catalog.load(tmp_path)


class TestList:
    def test_list_shows_specs_and_default_marker(self, tmp_path,
                                                 saved_index, capsys):
        assert main(["catalog", "init", str(tmp_path)]) == 0
        assert main(["catalog", "add", str(tmp_path), "--name", "vecs",
                     "--path", "index.npz", "--default"]) == 0
        capsys.readouterr()
        assert main(["catalog", "list", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 entry" in out
        assert "* vecs" in out
        assert "kind=vector dim=8" in out and "format=v" in out

    def test_list_marks_unreadable_entries_without_failing(self, tmp_path,
                                                           saved_index,
                                                           capsys):
        assert main(["catalog", "init", str(tmp_path)]) == 0
        assert main(["catalog", "add", str(tmp_path), "--name", "vecs",
                     "--path", "index.npz"]) == 0
        saved_index.unlink()
        capsys.readouterr()
        assert main(["catalog", "list", str(tmp_path)]) == 0
        assert "UNREADABLE" in capsys.readouterr().out

    def test_list_without_catalog_is_exit_2(self, tmp_path, capsys):
        assert main(["catalog", "list", str(tmp_path)]) == 2
        assert "catalog init" in capsys.readouterr().err

    def test_list_broken_manifest_is_exit_2(self, tmp_path, capsys):
        (tmp_path / CATALOG_NAME).write_text(json.dumps({"entries": "x"}))
        assert main(["catalog", "list", str(tmp_path)]) == 2
        assert "entries" in capsys.readouterr().err
