"""Storage backends + ``open_index`` facade: layout sniffing, legacy
single-file formats (checked-in v1/v2 fixtures), the save/load suffix
regression, and manifest validation."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.index import (
    MANIFEST_NAME,
    IndexSpec,
    ShardedDirBackend,
    ShardedIndex,
    SingleFileBackend,
    TableIndex,
    VectorIndex,
    open_index,
    read_index_spec,
    save_index,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"
RNG = np.random.default_rng(7)


def small_index(n: int = 6, dim: int = 8, seed: int = 0) -> VectorIndex:
    index = VectorIndex(dim=dim, seed=seed)
    index.add_batch([f"k{i}" for i in range(n)], RNG.standard_normal((n, dim)))
    return index


def small_sharded(n: int = 12, dim: int = 8, n_shards: int = 3) -> ShardedIndex:
    sharded = ShardedIndex.create(IndexSpec(kind="vector", dim=dim), n_shards)
    sharded.add_batch([f"k{i}" for i in range(n)],
                      RNG.standard_normal((n, dim)))
    return sharded


class TestOpenIndexDispatch:
    def test_single_file(self, tmp_path):
        path = small_index().save(tmp_path / "idx.npz")
        loaded = open_index(path)
        assert type(loaded) is VectorIndex and len(loaded) == 6

    def test_sharded_directory(self, tmp_path):
        path = small_sharded().save(tmp_path / "idx")
        loaded = open_index(path)
        assert isinstance(loaded, ShardedIndex)
        assert loaded.n_shards == 3 and len(loaded) == 12

    def test_missing_path_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no index file"):
            open_index(tmp_path / "ghost.npz")

    def test_directory_without_manifest_rejected(self, tmp_path):
        (tmp_path / "notanindex").mkdir()
        with pytest.raises(FileNotFoundError, match="MANIFEST"):
            open_index(tmp_path / "notanindex")

    def test_save_index_picks_layout(self, tmp_path):
        single = save_index(small_index(), tmp_path / "one.npz")
        assert single.is_file()
        sharded = save_index(small_sharded(), tmp_path / "many")
        assert (sharded / MANIFEST_NAME).is_file()

    def test_backends_report_handling(self, tmp_path):
        file_path = small_index().save(tmp_path / "a.npz")
        dir_path = small_sharded().save(tmp_path / "b")
        assert SingleFileBackend().handles(file_path)
        assert not SingleFileBackend().handles(dir_path)
        assert ShardedDirBackend().handles(dir_path)
        assert not ShardedDirBackend().handles(file_path)


class TestSuffixRegression:
    def test_save_then_load_with_non_npz_suffix(self, tmp_path):
        """save("foo.idx") writes foo.idx.npz (numpy appends); load and
        open_index must find it under the original name instead of
        looking for a never-written foo.npz."""
        index = small_index()
        written = index.save(tmp_path / "foo.idx")
        assert written.name == "foo.idx.npz"
        assert not (tmp_path / "foo.npz").exists()
        for reload in (VectorIndex.load, open_index):
            loaded = reload(tmp_path / "foo.idx")
            assert loaded.keys == index.keys

    def test_suffixless_path_still_loads(self, tmp_path):
        index = small_index()
        index.save(tmp_path / "bare")
        assert open_index(tmp_path / "bare").keys == index.keys

    def test_stray_directory_does_not_preempt_sibling_file(self, tmp_path):
        """A manifest-less directory at the bare path (e.g. an
        interrupted sharded save) must not stop the appended-.npz
        sibling from loading."""
        index = small_index()
        index.save(tmp_path / "tables")          # writes tables.npz
        (tmp_path / "tables").mkdir()            # stray directory
        loaded = open_index(tmp_path / "tables")
        assert loaded.keys == index.keys


class TestLegacyFixtures:
    """Pre-redesign files must keep loading through open_index."""

    def test_v1_fixture_loads(self):
        index = open_index(FIXTURES / "v1-table.npz")
        assert isinstance(index, TableIndex)
        assert index.spec.extra["variant"] == "tblcomp1"
        assert index.keys == ["fp-alpha", "fp-bravo", "fp-charlie", "fp-delta"]
        assert index.model_id is None            # pre-v2: unknown checkpoint
        assert index.n_tombstones == 0           # v1 had no tombstones
        assert index.corpus == {"dataset": "fixture", "n_tables": 4, "seed": 0}
        hits = index.query_vector(index.vector("fp-bravo"), k=2)
        assert hits[0].key == "fp-bravo"
        assert hits[0].score == pytest.approx(1.0)

    def test_v2_fixture_loads_mid_lifecycle(self):
        index = open_index(FIXTURES / "v2-table.npz")
        assert isinstance(index, TableIndex)
        assert index.model_id == "fixture-model"
        assert index.n_tombstones == 1 and len(index) == 3
        assert "fp-delta" not in index
        hits = index.query_vector(index.vector("fp-alpha"), k=3)
        assert "fp-delta" not in {h.key for h in hits}

    def test_fixture_vectors_match_generator(self):
        """The committed binaries hold the seeded generator vectors —
        guards against regenerating one fixture but not the other."""
        expected = np.random.default_rng(42).standard_normal((4, 8))
        v1 = open_index(FIXTURES / "v1-table.npz")
        v2 = open_index(FIXTURES / "v2-table.npz")
        assert np.allclose(v1.vector("fp-alpha"), expected[0])
        assert np.allclose(v2.vector("fp-alpha"), expected[0])


class TestManifest:
    def test_schema_contents(self, tmp_path):
        sharded = small_sharded()
        sharded.remove("k0")
        path = sharded.save(tmp_path / "idx")
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        assert manifest["manifest_version"] == 1
        assert manifest["n_shards"] == 3
        assert manifest["spec"]["kind"] == "vector"
        assert manifest["spec"]["dim"] == 8
        assert len(manifest["shards"]) == 3
        assert sum(e["entries"] for e in manifest["shards"]) == 11
        assert sum(e["tombstones"] for e in manifest["shards"]) == 1
        assert all((path / e["file"]).is_file() for e in manifest["shards"])

    def test_future_manifest_version_rejected(self, tmp_path):
        path = small_sharded().save(tmp_path / "idx")
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["manifest_version"] = 99
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="manifest v99"):
            open_index(path)

    @pytest.mark.parametrize("corruption", ["n_shards", "missing_file"])
    def test_spec_peek_rejects_what_open_rejects(self, tmp_path, corruption):
        """read_index_spec (catalog add/list, the pre-fork check) reads
        the manifest through the same checks open_index does, so it
        cannot accept a layout that will not open."""
        path = small_sharded(n_shards=2).save(tmp_path / "idx")
        if corruption == "n_shards":
            manifest = json.loads((path / MANIFEST_NAME).read_text())
            manifest["n_shards"] = 3
            (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        else:
            (path / "shard-0001.npz").unlink()
        with pytest.raises(ValueError) as opened:
            open_index(path)
        with pytest.raises(ValueError) as peeked:
            read_index_spec(path)
        assert str(peeked.value) == str(opened.value)

    def test_mismatched_shard_rejected(self, tmp_path):
        """A hand-edited manifest cannot smuggle in a shard from a
        different vector space."""
        path = small_sharded(dim=8).save(tmp_path / "idx")
        VectorIndex(dim=4).save(path / "shard-0001.npz")
        with pytest.raises(ValueError, match="dim"):
            open_index(path)

    def test_mismatched_lsh_geometry_rejected(self, tmp_path):
        """Per-shard candidate counts are only comparable when every
        shard hashes through the same hyperplanes — a shard with a
        different LSH seed must fail at load, not skew fan-out."""
        path = small_sharded(dim=8).save(tmp_path / "idx")
        VectorIndex(dim=8, seed=99).save(path / "shard-0001.npz")
        with pytest.raises(ValueError, match="geometry"):
            open_index(path)

    def test_rebalance_to_fewer_shards_drops_stale_files(self, tmp_path):
        sharded = small_sharded(n_shards=4)
        path = sharded.save(tmp_path / "idx")
        assert len(list(path.glob("shard-*.npz"))) == 4
        sharded.rebalance(2)
        sharded.save(path)
        assert len(list(path.glob("shard-*.npz"))) == 2
        assert len(open_index(path)) == 12

    def test_manifest_spec_fills_the_kind_default(self, tmp_path):
        """A table layout's manifest carries its composition parameter,
        as a table file's payload always has."""
        spec = IndexSpec(kind="table", dim=8)
        path = ShardedIndex.create(spec, 2).save(tmp_path / "idx")
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        assert manifest["spec"]["variant"] == "tblcomp1"
        assert open_index(path).spec == read_index_spec(path)[0]

    def test_corpus_and_model_id_round_trip(self, tmp_path):
        sharded = small_sharded()
        sharded.corpus = {"dataset": "cancerkg", "n_tables": 12, "seed": 0}
        sharded.model_id = "abc123"
        loaded = open_index(sharded.save(tmp_path / "idx"))
        assert loaded.corpus == sharded.corpus
        assert loaded.model_id == "abc123"


def _stamp_kind(path: Path, kind: str) -> None:
    """Rewrite a saved single file's payload kind, every array kept."""
    with np.load(path) as archive:
        members = {name: archive[name] for name in archive.files}
    payload = json.loads(bytes(members["__index__"]).decode("utf-8"))
    payload["params"]["kind"] = kind
    members["__index__"] = np.frombuffer(json.dumps(payload).encode("utf-8"),
                                         dtype=np.uint8)
    np.savez(path, **members)


class TestUnknownKind:
    """A kind no index class is registered for is refused by every
    reader with ``index_class``'s message — never opened as a plain
    vector index, never stamped into a catalog the server would then
    refuse as stale."""

    def _refused_everywhere(self, path, readers, tmp_path, capsys):
        for read in readers:
            with pytest.raises(ValueError,
                               match="unknown index kind 'tabel'"):
                read(path)
        catalog = tmp_path / "catalog"
        catalog.mkdir()
        assert main(["catalog", "init", str(catalog)]) == 0
        capsys.readouterr()
        assert main(["catalog", "add", str(catalog), "--name", "t",
                     "--path", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown index kind 'tabel'" in err and err.count("\n") == 1

    def test_single_file(self, tmp_path, capsys):
        path = small_index().save(tmp_path / "idx.npz")
        _stamp_kind(path, "tabel")
        self._refused_everywhere(
            path, (open_index, VectorIndex.load, read_index_spec),
            tmp_path, capsys)

    def test_sharded_directory(self, tmp_path, capsys):
        path = small_sharded().save(tmp_path / "idx")
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["spec"]["kind"] = "tabel"
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        self._refused_everywhere(path, (open_index, read_index_spec),
                                 tmp_path, capsys)
