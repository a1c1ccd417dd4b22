"""Failure-injection tests: corrupt inputs, adversarial tables, bad state."""

import numpy as np
import pytest

from repro.core import TabBiNConfig, TabBiNEmbedder
from repro.nn import Linear, Sequential, load_checkpoint, save_checkpoint
from repro.tables import Table, parse_value
from repro.tables.values import TextValue


class TestAdversarialTables:
    """The embedder must survive hostile-but-valid table content."""

    @pytest.fixture(scope="class")
    def embedder(self):
        weird = [
            Table("empty cells", [["a", "b"]],
                  [["", ""], ["x", ""]], topic="weird"),
            Table("unicode", [["col"]],
                  [["naïve café 中文 ☃"], ["±∞µ"]], topic="weird"),
            Table("huge cell", [["col"]],
                  [[" ".join(f"tok{i}" for i in range(500))]], topic="weird"),
            Table("numeric soup", [["n"]],
                  [["1e308"], ["-0.0"], ["999999999999999"]], topic="weird"),
            Table("whitespace", [["  a  "]], [["   "]], topic="weird"),
        ]
        emb, _ = TabBiNEmbedder.build(weird * 2, config=TabBiNConfig.tiny(),
                                      steps=3, vocab_size=300, seed=0)
        return emb, weird

    def test_embeddings_stay_finite(self, embedder):
        emb, weird = embedder
        for table in weird:
            vec = emb.table_embedding(table, variant="tblcomp1")
            assert np.isfinite(vec).all(), table.caption
            for j in range(table.n_cols):
                assert np.isfinite(emb.column_embedding(table, j)).all()

    def test_empty_string_entity(self, embedder):
        emb, _ = embedder
        vec = emb.entity_embedding("")
        assert vec.shape == (emb.hidden,)
        assert np.isfinite(vec).all()

    def test_huge_cell_respects_token_cap(self, embedder):
        emb, weird = embedder
        seq = emb.serializer.serialize(weird[2], "row")[0]
        assert seq.tokens_of_cell(0).size <= emb.config.max_cell_tokens


class TestValueParsingEdgeCases:
    @pytest.mark.parametrize("text", [
        "-", "--", ".", "..", "+-", "1-", "-1-", "1.2.3", "1e", "e5",
        "± 4", "1 ±", "%", "% 5",
    ])
    def test_malformed_numerics_degrade_to_text(self, text):
        value = parse_value(text)
        # Must not crash; anything unparseable is text.
        assert value.render() is not None

    def test_extreme_magnitudes(self):
        from repro.core.numeric_features import numeric_features

        for x in (1e300, 1e-300, -1e300, 0.0):
            mag, pre, fst, lst = numeric_features(x)
            assert 1 <= mag <= 10 and 1 <= pre <= 10

    def test_whitespace_only(self):
        assert isinstance(parse_value(" \t "), TextValue)


class TestCorruptCheckpoints:
    def test_truncated_file_raises_cleanly(self, tmp_path):
        model = Sequential(Linear(3, 3))
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(Exception):
            load_checkpoint(Sequential(Linear(3, 3)), path)

    def test_garbage_file_raises_cleanly(self, tmp_path):
        path = tmp_path / "model.npz"
        path.write_bytes(b"not a zip archive at all")
        with pytest.raises(Exception):
            load_checkpoint(Sequential(Linear(3, 3)), path)

    def test_embedder_load_missing_segment(self, tmp_path):
        corpus = [Table("t", [["a", "b"]], [["x", "1"], ["y", "2"]],
                        topic="t")]
        emb, _ = TabBiNEmbedder.build(corpus, config=TabBiNConfig.tiny(),
                                      steps=1, vocab_size=200, seed=0)
        emb.save(tmp_path / "ckpt")
        (tmp_path / "ckpt" / "vmd.npz").unlink()
        with pytest.raises(FileNotFoundError):
            TabBiNEmbedder.load(tmp_path / "ckpt", TabBiNConfig.tiny())


class TestShardedLayoutCorruption:
    """A broken sharded layout must surface one clear error at open
    time — never a worker hang or a half-merged query result."""

    @pytest.fixture()
    def layout(self, tmp_path):
        from repro.index import IndexSpec, ShardedIndex

        rng = np.random.default_rng(0)
        sharded = ShardedIndex.create(IndexSpec(kind="vector", dim=8), 3)
        sharded.add_batch([f"key{i}" for i in range(12)],
                          rng.standard_normal((12, 8)))
        return sharded.save(tmp_path / "idx")

    def test_missing_shard_file(self, layout):
        """ValueError, not FileNotFoundError: the layout exists but
        disagrees with its manifest (the CLI maps FileNotFoundError to
        a 'run index build first' hint, wrong for a broken layout)."""
        from repro.index import open_index

        (layout / "shard-0001.npz").unlink()
        with pytest.raises(ValueError) as error:
            open_index(layout)
        assert "shard-0001.npz" in str(error.value)
        assert "MANIFEST" in str(error.value)

    def test_truncated_shard_file(self, layout):
        from repro.index import open_index

        shard = layout / "shard-0002.npz"
        shard.write_bytes(shard.read_bytes()[:25])
        with pytest.raises(ValueError, match="corrupt or truncated"):
            open_index(layout)

    def test_garbage_shard_file(self, layout):
        from repro.index import open_index

        (layout / "shard-0000.npz").write_bytes(b"not a zip archive")
        with pytest.raises(ValueError, match="corrupt or truncated"):
            open_index(layout)

    def test_manifest_shard_count_mismatch(self, layout):
        import json

        from repro.index import open_index

        manifest_path = layout / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["n_shards"] = 5
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="n_shards=5.*lists 3"):
            open_index(layout)

    def test_manifest_entry_count_mismatch(self, layout):
        """A shard swapped in from another build (entry counts disagree
        with the manifest) is an inconsistent layout, not data."""
        import json

        from repro.index import open_index

        manifest_path = layout / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["shards"][1]["entries"] += 2
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="inconsistent"):
            open_index(layout)

    @pytest.mark.parametrize("drop", ["shards", "spec"])
    def test_manifest_missing_required_key(self, layout, drop):
        """A JSON-parseable manifest without its required structure is
        one clear ValueError, not a KeyError traceback."""
        import json

        from repro.index import open_index

        manifest_path = layout / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest[drop]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="required 'spec'/'shards'"):
            open_index(layout)

    def test_manifest_spec_missing_field(self, layout):
        import json

        from repro.index import open_index

        manifest_path = layout / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["spec"]["dim"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="spec lacks required field"):
            open_index(layout)

    def test_garbage_manifest_is_a_value_error(self, layout):
        """json.JSONDecodeError subclasses ValueError, so the CLI's
        stderr + exit-2 contract covers an unparseable manifest too."""
        from repro.index import open_index

        (layout / "MANIFEST.json").write_text("{not json")
        with pytest.raises(ValueError):
            open_index(layout)

    def test_intact_layout_still_opens(self, layout):
        """The integrity checks must not reject a healthy layout."""
        from repro.index import open_index

        index = open_index(layout)
        assert len(index) == 12
        assert len(index.query_vector(np.zeros(8), k=3)) == 3


class TestNaNRobustness:
    def test_layernorm_constant_input(self):
        """Zero-variance rows must not divide by zero."""
        from repro.nn import LayerNorm, Tensor

        norm = LayerNorm(8)
        out = norm(Tensor(np.full((2, 8), 3.0)))
        assert np.isfinite(out.data).all()

    def test_softmax_all_masked_but_self(self):
        from repro.nn import MultiHeadSelfAttention, Tensor

        attn = MultiHeadSelfAttention(8, 2, rng=np.random.default_rng(0))
        mask = np.eye(4, dtype=np.uint8)
        out = attn(Tensor(np.random.default_rng(0).standard_normal((1, 4, 8))),
                   mask)
        assert np.isfinite(out.data).all()

    def test_cosine_with_nan_free_zero_vectors(self):
        from repro.retrieval import normalize_rows

        m = normalize_rows(np.zeros((2, 4)))
        assert np.isfinite(m).all()
        assert not m.any()
