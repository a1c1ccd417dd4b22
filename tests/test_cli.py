"""CLI tests (stats / train / evaluate / encode subcommands)."""

import pytest

from repro.cli import _COMMANDS, build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_dataset_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "imaginary"])

    def test_defaults(self):
        args = build_parser().parse_args(["train", "cancerkg"])
        assert args.steps == 80 and args.out is None


class TestStats:
    def test_prints_statistics(self, capsys):
        assert main(["stats", "webtables", "--n-tables", "8"]) == 0
        out = capsys.readouterr().out
        assert "Corpus statistics: webtables" in out
        assert "avg rows" in out and "non-relational" in out


class TestTrainEvaluate:
    def test_train_and_save(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        code = main(["train", "cancerkg", "--n-tables", "6", "--steps", "2",
                     "--vocab-size", "300", "--out", str(ckpt)])
        assert code == 0
        assert (ckpt / "vocab.json").exists()
        assert (ckpt / "row.npz").exists()
        out = capsys.readouterr().out
        assert "Saved checkpoint" in out

    def test_train_saves_when_a_segment_records_no_loss(self, tmp_path,
                                                        capsys):
        """webtables' vmd batches hold no maskable token, so that
        segment trains no step; the summary must still print and the
        checkpoint still be written."""
        from repro.core import TabBiNConfig, TabBiNEmbedder

        ckpt = tmp_path / "ckpt"
        assert main(["train", "webtables", "--n-tables", "8", "--steps", "2",
                     "--out", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "no maskable tokens (0 steps)" in out
        assert "Saved checkpoint" in out
        TabBiNEmbedder.load(ckpt, TabBiNConfig.small())

    def test_evaluate_from_checkpoint(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        main(["train", "cancerkg", "--n-tables", "8", "--steps", "2",
              "--vocab-size", "300", "--out", str(ckpt)])
        capsys.readouterr()
        code = main(["evaluate", "cancerkg", "--n-tables", "8",
                     "--model", str(ckpt), "--max-queries", "6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Column Clustering" in out and "Table Clustering" in out


class TestEncode:
    def test_encodes_table(self, capsys):
        code = main(["encode", "cancerkg", "--n-tables", "4", "--table", "0",
                     "--limit", "10", "--vocab-size", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[CLS]" in out
        assert "coords" in out

    def test_bad_table_index(self, capsys):
        code = main(["encode", "cancerkg", "--n-tables", "4", "--table", "99"])
        assert code == 2


class TestIndex:
    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("index") / "idx"
        code = main(["index", "build", "cancerkg", "--n-tables", "6",
                     "--steps", "0", "--vocab-size", "300",
                     "--out", str(out)])
        assert code == 0
        return out

    def test_build_writes_model_and_indexes(self, built, capsys):
        assert (built / "tables.npz").exists()
        assert (built / "columns.npz").exists()
        assert (built / "model" / "vocab.json").exists()

    def test_query_tables_round_trip(self, built, capsys):
        code = main(["index", "query", "cancerkg", "--n-tables", "6",
                     "--index", str(built), "--table", "1", "--k", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Tables similar to" in out
        assert out.count("0.") >= 3        # three scored neighbours

    def test_query_column_round_trip(self, built, capsys):
        code = main(["index", "query", "cancerkg", "--n-tables", "6",
                     "--index", str(built), "--table", "0", "--column", "0",
                     "--k", "2"])
        assert code == 0
        assert "Columns similar to" in capsys.readouterr().out

    def test_query_bad_table(self, built):
        assert main(["index", "query", "cancerkg", "--n-tables", "6",
                     "--index", str(built), "--table", "99"]) == 2

    def test_query_bad_column(self, built):
        assert main(["index", "query", "cancerkg", "--n-tables", "6",
                     "--index", str(built), "--table", "0",
                     "--column", "99"]) == 2

    def test_build_invalid_workers_rejected_up_front(self, tmp_path, capsys):
        """Bad --workers must fail before the expensive train step, with
        the CLI's stderr + exit-2 contract rather than a traceback."""
        code = main(["index", "build", "cancerkg", "--n-tables", "6",
                     "--steps", "0", "--out", str(tmp_path / "idx"),
                     "--workers", "0"])
        assert code == 2
        assert "--workers must be positive" in capsys.readouterr().err
        assert not (tmp_path / "idx").exists()

    def test_build_empty_corpus_rejected(self, tmp_path, capsys):
        code = main(["index", "build", "cancerkg", "--n-tables", "0",
                     "--steps", "0", "--out", str(tmp_path / "idx")])
        assert code == 2
        assert "empty corpus" in capsys.readouterr().err

    def test_query_corpus_mismatch_rejected(self, built, capsys):
        """Generated corpora are not prefix-stable — querying with other
        corpus arguments than the build must error, not mis-rank."""
        code = main(["index", "query", "cancerkg", "--n-tables", "4",
                     "--index", str(built), "--table", "0"])
        assert code == 2
        assert "built from" in capsys.readouterr().err

    def test_build_with_workers_matches_serial(self, built, tmp_path, capsys):
        """--workers only changes the executor: the saved indexes must be
        byte-for-byte interchangeable with a serial build."""
        import numpy as np

        from repro.index import open_index

        out = tmp_path / "par"
        code = main(["index", "build", "cancerkg", "--n-tables", "6",
                     "--steps", "0", "--vocab-size", "300",
                     "--out", str(out), "--workers", "2"])
        assert code == 0
        assert "2 workers" in capsys.readouterr().out
        serial = open_index(built / "tables.npz")
        parallel = open_index(out / "tables.npz")
        assert serial.keys == parallel.keys
        assert (serial.lsh.vectors() == parallel.lsh.vectors()).all()


class TestShardedIndexCLI:
    """`index build --shards N` + transparent query/rm/compact/merge over
    the sharded directory layout."""

    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("sharded") / "idx"
        assert main(["index", "build", "cancerkg", "--n-tables", "6",
                     "--steps", "0", "--vocab-size", "300",
                     "--out", str(out), "--shards", "3"]) == 0
        return out

    def test_build_emits_sharded_layout(self, built):
        import json

        assert (built / "tables" / "MANIFEST.json").exists()
        assert (built / "columns" / "MANIFEST.json").exists()
        assert not (built / "tables.npz").exists()
        manifest = json.loads((built / "tables" / "MANIFEST.json").read_text())
        assert manifest["n_shards"] == 3
        assert sum(e["entries"] for e in manifest["shards"]) == 6

    def test_query_tables_over_sharded_layout(self, built, capsys):
        assert main(["index", "query", "cancerkg", "--n-tables", "6",
                     "--index", str(built), "--table", "1", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "Tables similar to" in out
        assert out.count("0.") >= 3

    def test_query_columns_over_sharded_layout(self, built, capsys):
        assert main(["index", "query", "cancerkg", "--n-tables", "6",
                     "--index", str(built), "--table", "0", "--column", "0",
                     "--k", "2"]) == 0
        assert "Columns similar to" in capsys.readouterr().out

    def test_sharded_query_matches_single_file_build(self, built,
                                                     tmp_path_factory,
                                                     capsys):
        """Same corpus, same checkpoint config: the sharded and the
        single-file layout must print identical rankings."""
        single = tmp_path_factory.mktemp("single") / "idx"
        assert main(["index", "build", "cancerkg", "--n-tables", "6",
                     "--steps", "0", "--vocab-size", "300",
                     "--out", str(single)]) == 0
        capsys.readouterr()
        assert main(["index", "query", "cancerkg", "--n-tables", "6",
                     "--index", str(single), "--table", "1", "--k", "4"]) == 0
        single_out = capsys.readouterr().out
        assert main(["index", "query", "cancerkg", "--n-tables", "6",
                     "--index", str(built), "--table", "1", "--k", "4"]) == 0
        assert capsys.readouterr().out == single_out

    def test_rm_and_compact_on_sharded_dir(self, built, tmp_path, capsys):
        import shutil

        from repro.index import open_index

        copy = tmp_path / "tables"
        shutil.copytree(built / "tables", copy)
        key = TestIndexLifecycleCLI.corpus_key(0)
        assert main(["index", "rm", str(copy), key]) == 0
        assert "1 tombstoned" in capsys.readouterr().out
        index = open_index(copy)
        assert key not in index and index.n_tombstones == 1
        assert main(["index", "compact", str(copy)]) == 0
        assert "reclaimed 1" in capsys.readouterr().out
        assert open_index(copy).n_tombstones == 0

    def test_merge_mixed_layouts(self, built, tmp_path, capsys):
        """First input sharded, second single-file: merge dedupes and
        keeps the sharded layout."""
        import shutil

        from repro.index import ShardedIndex, open_index

        left = tmp_path / "left"
        shutil.copytree(built / "tables", left)
        key = TestIndexLifecycleCLI.corpus_key(0)
        main(["index", "rm", str(left), key, "--compact"])
        capsys.readouterr()
        single = tmp_path / "single"
        assert main(["index", "build", "cancerkg", "--n-tables", "6",
                     "--steps", "0", "--vocab-size", "300",
                     "--out", str(single)]) == 0
        capsys.readouterr()
        merged = tmp_path / "merged"
        assert main(["index", "merge", str(left),
                     str(single / "tables.npz"), "--out", str(merged)]) == 0
        assert "fingerprint-deduped" in capsys.readouterr().out
        result = open_index(merged)
        assert isinstance(result, ShardedIndex)       # first input's layout
        assert len(result) == 6                       # removed key restored

    def test_rebuild_switching_layout_replaces_stale_artifacts(self, tmp_path,
                                                               capsys):
        """Rebuilding the same --out with the other layout must not
        leave the previous artifact behind — open_index sniffs the
        manifest directory first and would silently serve stale
        results."""
        out = tmp_path / "idx"
        assert main(["index", "build", "cancerkg", "--n-tables", "4",
                     "--steps", "0", "--vocab-size", "300",
                     "--out", str(out), "--shards", "2"]) == 0
        assert main(["index", "build", "cancerkg", "--n-tables", "6",
                     "--steps", "0", "--vocab-size", "300",
                     "--out", str(out)]) == 0
        assert not (out / "tables").exists()          # stale dirs removed
        assert not (out / "columns").exists()
        capsys.readouterr()
        # The 4-table sharded build is gone: querying as the 6-table
        # corpus must hit the fresh single-file index, not error out.
        assert main(["index", "query", "cancerkg", "--n-tables", "6",
                     "--index", str(out), "--table", "0", "--k", "2"]) == 0
        assert "Tables similar to" in capsys.readouterr().out
        # And back: single-file -> sharded removes the stale .npz.
        assert main(["index", "build", "cancerkg", "--n-tables", "6",
                     "--steps", "0", "--vocab-size", "300",
                     "--out", str(out), "--shards", "2"]) == 0
        assert not (out / "tables.npz").exists()

    def test_remerge_switching_layout_replaces_stale_output(self, built,
                                                            tmp_path, capsys):
        """Re-running merge at the same --out with the other first-input
        layout must replace the old artifact (a stale manifest dir
        would out-sniff a fresh .npz; a stale file blocks the dir)."""
        from repro.index import ShardedIndex, VectorIndex, open_index

        single = tmp_path / "single"
        assert main(["index", "build", "cancerkg", "--n-tables", "6",
                     "--steps", "0", "--vocab-size", "300",
                     "--out", str(single)]) == 0
        out = tmp_path / "merged"
        assert main(["index", "merge", str(built / "tables"),
                     str(single / "tables.npz"), "--out", str(out)]) == 0
        assert isinstance(open_index(out), ShardedIndex)
        assert main(["index", "merge", str(single / "tables.npz"),
                     str(built / "tables"), "--out", str(out)]) == 0
        assert isinstance(open_index(out), VectorIndex)
        assert main(["index", "merge", str(built / "tables"),
                     str(single / "tables.npz"), "--out", str(out)]) == 0
        assert isinstance(open_index(out), ShardedIndex)

    def test_query_future_format_exits_2(self, built, tmp_path, capsys):
        """A newer manifest version must exit 2 with the version
        message, matching the lifecycle commands' contract."""
        import json
        import shutil

        broken = tmp_path / "idx"
        shutil.copytree(built, broken)
        manifest_path = broken / "tables" / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["manifest_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        code = main(["index", "query", "cancerkg", "--n-tables", "6",
                     "--index", str(broken), "--table", "0"])
        assert code == 2
        assert "manifest v99" in capsys.readouterr().err

    def test_build_invalid_shards_rejected(self, tmp_path, capsys):
        code = main(["index", "build", "cancerkg", "--n-tables", "6",
                     "--steps", "0", "--out", str(tmp_path / "idx"),
                     "--shards", "0"])
        assert code == 2
        assert "--shards must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "idx").exists()

    def test_query_invalid_k_rejected(self, built, capsys):
        """k < 1 exits 2 with a message instead of silently returning an
        empty (or nonsensical) ranking."""
        for bad_k in ("0", "-3"):
            code = main(["index", "query", "cancerkg", "--n-tables", "6",
                         "--index", str(built), "--table", "0", "--k", bad_k])
            assert code == 2
            assert "must be at least 1" in capsys.readouterr().err


class TestIndexLifecycleCLI:
    """`index rm` / `index compact` / `index merge` end-to-end on a tmp
    corpus, including the error paths."""

    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("lifecycle") / "idx"
        assert main(["index", "build", "cancerkg", "--n-tables", "6",
                     "--steps", "0", "--vocab-size", "300",
                     "--out", str(out)]) == 0
        return out

    @pytest.fixture()
    def tables_npz(self, built, tmp_path):
        """A throwaway copy of the built table index, so destructive
        subcommands can't leak between tests."""
        import shutil

        copy = tmp_path / "tables.npz"
        shutil.copy(built / "tables.npz", copy)
        return copy

    @staticmethod
    def corpus_key(position: int) -> str:
        from repro.datasets import load_dataset
        from repro.index import table_fingerprint

        tables = load_dataset("cancerkg", n_tables=6, seed=0)
        return table_fingerprint(tables[position])

    def test_rm_tombstones_and_persists(self, tables_npz, capsys):
        from repro.index import open_index

        key = self.corpus_key(0)
        assert main(["index", "rm", str(tables_npz), key]) == 0
        assert "1 tombstoned" in capsys.readouterr().out
        index = open_index(tables_npz)
        assert key not in index
        assert index.n_tombstones == 1 and len(index) == 5

    def test_rm_compact_flag_reclaims(self, tables_npz, capsys):
        from repro.index import open_index

        key = self.corpus_key(1)
        assert main(["index", "rm", str(tables_npz), key, "--compact"]) == 0
        index = open_index(tables_npz)
        assert index.n_tombstones == 0 and len(index) == 5

    def test_rm_missing_key_errors_without_mutating(self, tables_npz, capsys):
        from repro.index import open_index

        code = main(["index", "rm", str(tables_npz), self.corpus_key(0),
                     "no-such-fingerprint"])
        assert code == 2
        assert "not in index" in capsys.readouterr().err
        assert len(open_index(tables_npz)) == 6     # untouched

    def test_rm_missing_file_errors(self, tmp_path, capsys):
        assert main(["index", "rm", str(tmp_path / "ghost.npz"), "k"]) == 2
        assert "no index file" in capsys.readouterr().err

    def test_compact_round_trip(self, tables_npz, capsys):
        from repro.index import open_index

        main(["index", "rm", str(tables_npz), self.corpus_key(2)])
        capsys.readouterr()
        assert main(["index", "compact", str(tables_npz)]) == 0
        assert "reclaimed 1" in capsys.readouterr().out
        assert open_index(tables_npz).n_tombstones == 0

    def test_query_after_rm_never_returns_removed(self, built, tmp_path,
                                                  capsys, monkeypatch):
        """Full loop: rm via CLI, then query via CLI on the same corpus —
        the removed table's caption must be gone from the ranking."""
        import shutil

        from repro.datasets import load_dataset

        index_dir = tmp_path / "idx"
        shutil.copytree(built, index_dir)
        removed = load_dataset("cancerkg", n_tables=6, seed=0)[2]
        main(["index", "rm", str(index_dir / "tables.npz"),
              self.corpus_key(2)])
        capsys.readouterr()
        assert main(["index", "query", "cancerkg", "--n-tables", "6",
                     "--index", str(index_dir), "--table", "0",
                     "--k", "5"]) == 0
        out = capsys.readouterr().out
        assert removed.caption not in out

    def test_merge_dedupes(self, built, tables_npz, tmp_path, capsys):
        from repro.index import open_index

        merged = tmp_path / "merged.npz"
        assert main(["index", "merge", str(tables_npz),
                     str(built / "tables.npz"), "--out", str(merged)]) == 0
        assert "fingerprint-deduped" in capsys.readouterr().out
        assert len(open_index(merged)) == 6         # full overlap

    def test_merge_disjoint_after_rm(self, built, tmp_path, capsys):
        from repro.index import open_index

        left = tmp_path / "left.npz"
        import shutil

        shutil.copy(built / "tables.npz", left)
        main(["index", "rm", str(left), self.corpus_key(0),
              self.corpus_key(1), "--compact"])
        capsys.readouterr()
        merged = tmp_path / "merged.npz"
        assert main(["index", "merge", str(left), str(built / "tables.npz"),
                     "--out", str(merged)]) == 0
        assert len(open_index(merged)) == 6         # removed pair restored

    def test_merge_incompatible_params_errors(self, built, tmp_path, capsys):
        code = main(["index", "merge", str(built / "tables.npz"),
                     str(built / "columns.npz"),
                     "--out", str(tmp_path / "bad.npz")])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot merge" in err and "incompatible" in err
        assert not (tmp_path / "bad.npz").exists()

    def test_merge_missing_input_errors(self, built, tmp_path, capsys):
        assert main(["index", "merge", str(built / "tables.npz"),
                     str(tmp_path / "ghost.npz"),
                     "--out", str(tmp_path / "m.npz")]) == 2
        assert "no index file" in capsys.readouterr().err

    def test_merge_single_input_rejected(self, built, tmp_path, capsys):
        """One path would silently copy instead of merging."""
        assert main(["index", "merge", str(built / "tables.npz"),
                     "--out", str(tmp_path / "m.npz")]) == 2
        assert "at least two" in capsys.readouterr().err
        assert not (tmp_path / "m.npz").exists()

    def test_merge_different_checkpoints_rejected(self, built, tmp_path,
                                                  capsys):
        """Indexes built from different trained models share dim and
        variant but not an embedding space — merging must refuse."""
        other = tmp_path / "other"
        assert main(["index", "build", "cancerkg", "--n-tables", "6",
                     "--steps", "1", "--vocab-size", "300", "--seed", "0",
                     "--out", str(other)]) == 0
        capsys.readouterr()
        code = main(["index", "merge", str(built / "tables.npz"),
                     str(other / "tables.npz"),
                     "--out", str(tmp_path / "m.npz")])
        assert code == 2
        assert "model_id" in capsys.readouterr().err


class TestConcurrentQueryCLI:
    """`index query --batch FILE --jobs N` (many queries per call, JSON
    lines out)."""

    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("concurrent") / "idx"
        assert main(["index", "build", "cancerkg", "--n-tables", "6",
                     "--steps", "0", "--vocab-size", "300",
                     "--out", str(out), "--shards", "2"]) == 0
        return out

    @pytest.fixture(scope="class")
    def queries(self, built):
        """Three raw query vectors: two stored embeddings + their mean."""
        import numpy as np

        from repro.index import open_index

        index = open_index(built / "tables")
        keys = sorted(key for key, _vec, _meta in index.live_items())[:2]
        vectors = np.stack([index.vector(key) for key in keys])
        return np.vstack([vectors, vectors.mean(axis=0)])

    def expected(self, built, queries, k=3, excludes=None):
        """Serial query_vector baseline; scores rounded to 9 places (the
        repo's equivalence convention — batched scores match serial ones
        to floating-point roundoff, rankings exactly)."""
        from repro.index import open_index

        index = open_index(built / "tables")
        excludes = excludes or [None] * len(queries)
        return [[(h.key, round(h.score, 9))
                 for h in index.query_vector(q, k, exclude=e)]
                for q, e in zip(queries, excludes)]

    def parse_lines(self, out):
        import json

        records = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["query"] for r in records] == list(range(len(records)))
        return [[(hit["key"], round(hit["score"], 9)) for hit in r["hits"]]
                for r in records]

    def test_batch_npz_matches_serial_queries(self, built, queries, tmp_path,
                                              capsys):
        import numpy as np

        batch = tmp_path / "queries.npz"
        np.savez(batch, queries=queries)
        assert main(["index", "query", "cancerkg", "--index", str(built),
                     "--batch", str(batch), "--k", "3", "--jobs", "2"]) == 0
        got = self.parse_lines(capsys.readouterr().out)
        assert got == self.expected(built, queries, k=3)

    def test_batch_jsonl_with_excludes(self, built, queries, tmp_path,
                                       capsys):
        import json

        from repro.index import open_index

        index = open_index(built / "tables")
        keys = sorted(key for key, _vec, _meta in index.live_items())
        batch = tmp_path / "queries.jsonl"
        lines = [json.dumps({"vector": list(queries[0]),
                             "exclude": keys[0]}),
                 json.dumps(list(queries[1]))]
        batch.write_text("\n".join(lines) + "\n")
        assert main(["index", "query", "cancerkg", "--index", str(built),
                     "--batch", str(batch), "--k", "3"]) == 0
        got = self.parse_lines(capsys.readouterr().out)
        assert got == self.expected(built, queries[:2], k=3,
                                    excludes=[keys[0], None])
        assert keys[0] not in {key for key, _score in got[0]}

    def test_batch_works_on_single_file_layout(self, queries, tmp_path,
                                               capsys):
        """--batch goes through open_index, so it serves either layout."""
        import numpy as np

        single = tmp_path / "single"
        assert main(["index", "build", "cancerkg", "--n-tables", "6",
                     "--steps", "0", "--vocab-size", "300",
                     "--out", str(single)]) == 0
        batch = tmp_path / "queries.npz"
        np.savez(batch, queries=queries)
        capsys.readouterr()
        assert main(["index", "query", "cancerkg", "--index", str(single),
                     "--batch", str(batch), "--k", "2"]) == 0
        got = self.parse_lines(capsys.readouterr().out)
        assert got == self.expected(single, queries, k=2)

    def test_batch_dim_mismatch_rejected(self, built, tmp_path, capsys):
        import numpy as np

        batch = tmp_path / "bad_dim.npz"
        np.savez(batch, queries=np.zeros((2, 3)))
        assert main(["index", "query", "cancerkg", "--index", str(built),
                     "--batch", str(batch)]) == 2
        assert "dim" in capsys.readouterr().err

    def test_batch_with_column_arg_rejected(self, built, tmp_path, capsys):
        import numpy as np

        batch = tmp_path / "queries.npz"
        np.savez(batch, queries=np.zeros((1, 4)))
        assert main(["index", "query", "cancerkg", "--index", str(built),
                     "--batch", str(batch), "--column", "0"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    @pytest.mark.parametrize("first, line, fragment, lineno", [
        (b'{"vector": [1, 2]}', b"not json", "not valid JSON", 2),
        (b'{"vector": [1, 2]}', b"[NaN, 1]", "finite", 2),
        (b'{"vector": [1, 2]}', b"[Infinity, 1]", "finite", 2),
        (b'{"vector": [1, 2]}', b"[1" + b"0" * 399 + b", 1]", "finite", 2),
        (b'{"vector": [1, 2]}', b"[" * 100_000, "not valid JSON", 2),
        (b'{"vector": [1, 2]}', b'{"vector": [1, 2], "exclude": ["k1"]}',
         "excludes must be keys", 2),
        (b'{"vector": [1, 2]}', b'{"vector": [1, 2], "exclude": 3}',
         "excludes must be keys", 2),
        (b'{"vector": [1, 2], "exclude": "\xff"}', b'{"vector": [1, 2]}',
         "not valid UTF-8", 1),
        (b'{"vector": [1, 2]}', b'{"vector": [1, 2], "exclude": "\xff"}',
         "not valid UTF-8", 2),
    ], ids=["not-json", "nan", "infinity", "integer-too-large-for-float",
            "nested-too-deep", "exclude-list", "exclude-number",
            "not-utf8-first-line", "not-utf8-later-line"])
    def test_batch_malformed_jsonl_rejected(self, built, tmp_path, capsys,
                                            first, line, fragment, lineno):
        """A batch line is refused as the wire's ``POST /query`` would
        refuse it: exit 2 and one ``path:line`` message, no traceback."""
        batch = tmp_path / "bad.jsonl"
        batch.write_bytes(first + b"\n" + line + b"\n")
        assert main(["index", "query", "cancerkg", "--index", str(built),
                     "--batch", str(batch)]) == 2
        err = capsys.readouterr().err
        assert f"bad.jsonl:{lineno}:" in err and fragment in err

    def test_batch_non_finite_npz_rejected(self, built, queries, tmp_path,
                                           capsys):
        import numpy as np

        batch = tmp_path / "bad.npz"
        queries = np.array(queries, dtype=float)
        queries[1, 0] = np.nan
        np.savez(batch, queries=queries)
        assert main(["index", "query", "cancerkg", "--index", str(built),
                     "--batch", str(batch)]) == 2
        err = capsys.readouterr().err
        assert "bad.npz" in err and "finite" in err

    def test_batch_ragged_jsonl_rejected(self, built, tmp_path, capsys):
        batch = tmp_path / "ragged.jsonl"
        batch.write_text("[1.0, 2.0]\n[1.0, 2.0, 3.0]\n")
        assert main(["index", "query", "cancerkg", "--index", str(built),
                     "--batch", str(batch)]) == 2
        assert "ragged.jsonl:2" in capsys.readouterr().err

    def test_batch_missing_file_rejected(self, built, capsys):
        assert main(["index", "query", "cancerkg", "--index", str(built),
                     "--batch", "/nonexistent/queries.npz"]) == 2
        assert "no query batch file" in capsys.readouterr().err

    def test_bad_jobs_rejected(self, built, capsys):
        assert main(["index", "query", "cancerkg", "--n-tables", "6",
                     "--index", str(built), "--table", "0",
                     "--jobs", "0"]) == 2
        assert "--jobs must be positive" in capsys.readouterr().err

    def test_single_query_with_jobs_identical_output(self, built, capsys):
        assert main(["index", "query", "cancerkg", "--n-tables", "6",
                     "--index", str(built), "--table", "1", "--k", "3"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["index", "query", "cancerkg", "--n-tables", "6",
                     "--index", str(built), "--table", "1", "--k", "3",
                     "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial_out


class TestBatchStreaming:
    """`index query --batch` streams JSON lines as chunks complete
    instead of buffering the whole run (regression: the first version
    held every result until the end)."""

    DIM = 8
    N_QUERIES = 6

    @pytest.fixture()
    def built(self, tmp_path):
        """A raw table-kind index — no embedder needed for --batch."""
        import numpy as np

        from repro.index import TableIndex

        rng = np.random.default_rng(0)
        index = TableIndex(dim=self.DIM, seed=0)
        index.add_batch([f"fp{i:03d}" for i in range(20)],
                        rng.standard_normal((20, self.DIM)))
        index.save(tmp_path / "idx" / "tables.npz")
        return tmp_path / "idx"

    @pytest.fixture()
    def batch_file(self, tmp_path):
        import json as json_mod

        import numpy as np

        rows = np.random.default_rng(1).standard_normal(
            (self.N_QUERIES, self.DIM))
        path = tmp_path / "queries.jsonl"
        path.write_text("\n".join(json_mod.dumps([float(x) for x in row])
                                  for row in rows) + "\n")
        return path

    def test_output_streams_before_later_chunks_run(self, built, batch_file,
                                                    monkeypatch):
        """By the time chunk N's query_many runs, chunks 0..N-1 must
        already be printed — captured by counting emitted lines at each
        query_many call."""
        import io
        import json as json_mod
        import sys as sys_mod

        import repro.cli.index as index_mod

        buffer = io.StringIO()
        lines_at_call: list[int] = []
        real_open = index_mod.open_index

        class Recording:
            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def query_many(self, *args, **kwargs):
                lines_at_call.append(buffer.getvalue().count("\n"))
                return self._inner.query_many(*args, **kwargs)

        monkeypatch.setattr(index_mod, "open_index",
                            lambda path, **kw: Recording(real_open(path,
                                                                   **kw)))
        monkeypatch.setattr(sys_mod, "stdout", buffer)
        assert main(["index", "query", "cancerkg", "--index", str(built),
                     "--batch", str(batch_file), "--chunk", "2",
                     "--k", "3"]) == 0
        # 6 queries at chunk=2: three calls, each seeing the previous
        # chunks' lines already flushed.
        assert lines_at_call == [0, 2, 4]
        records = [json_mod.loads(line)
                   for line in buffer.getvalue().splitlines()]
        assert [record["query"] for record in records] == \
            list(range(self.N_QUERIES))

    def test_chunked_output_equals_unchunked(self, built, batch_file,
                                             capsys):
        assert main(["index", "query", "cancerkg", "--index", str(built),
                     "--batch", str(batch_file), "--chunk", "2",
                     "--k", "4"]) == 0
        chunked = capsys.readouterr().out
        assert main(["index", "query", "cancerkg", "--index", str(built),
                     "--batch", str(batch_file), "--chunk", "1000",
                     "--k", "4"]) == 0
        assert capsys.readouterr().out == chunked
        assert len(chunked.strip().splitlines()) == self.N_QUERIES

    def test_bad_chunk_rejected(self, built, batch_file, capsys):
        assert main(["index", "query", "cancerkg", "--index", str(built),
                     "--batch", str(batch_file), "--chunk", "0"]) == 2
        assert "--chunk must be at least 1" in capsys.readouterr().err

    def test_broken_pipe_exits_cleanly(self, built, batch_file,
                                       monkeypatch):
        """`... --batch | head` closes the pipe mid-stream: the command
        must stop producing and exit 0, not traceback (streaming made
        this reachable on every chunk boundary)."""
        import io
        import sys as sys_mod

        class ClosedPipe(io.StringIO):
            def __init__(self):
                super().__init__()
                self.writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes > 1:
                    raise BrokenPipeError
                return super().write(text)

        monkeypatch.setattr(sys_mod, "stdout", ClosedPipe())
        assert main(["index", "query", "cancerkg", "--index", str(built),
                     "--batch", str(batch_file), "--chunk", "2",
                     "--k", "3"]) == 0


class TestIndexQuantizeCLI:
    """`index quantize` retrofit + `index build --quantize`, end to end."""

    @pytest.fixture()
    def saved(self, tmp_path):
        import numpy as np

        from repro.index import VectorIndex

        rng = np.random.default_rng(0)
        index = VectorIndex(dim=12, seed=0)
        vectors = rng.standard_normal((40, 12))
        vectors[1::3] = vectors[::3][:len(vectors[1::3])]   # dense ties
        index.add_batch([f"k{i:03d}" for i in range(40)], vectors)
        return index.save(tmp_path / "tables.npz"), vectors

    def test_quantize_retrofits_in_place(self, saved, capsys):
        import numpy as np

        from repro.index import open_index

        path, vectors = saved
        assert main(["index", "quantize", str(path)]) == 0
        assert "int8 sidecar over 40 vectors" in capsys.readouterr().out
        with np.load(path) as archive:
            assert {"q8", "q_scales", "q_norms"} <= set(archive.files)
        quant = open_index(path, quantized=True)
        plain = open_index(path)
        want = [[(h.key, h.score) for h in hits]
                for hits in plain.query_many(vectors[:4], k=6)]
        got = [[(h.key, h.score) for h in hits]
               for hits in quant.query_many(vectors[:4], k=6)]
        assert got == want

    def test_quantize_is_idempotent_refresh(self, saved, capsys):
        path, _vectors = saved
        assert main(["index", "quantize", str(path)]) == 0
        before = path.read_bytes()
        assert main(["index", "quantize", str(path)]) == 0
        assert "Refreshed" in capsys.readouterr().out
        assert path.read_bytes() == before

    def test_quantize_missing_path_exits_2(self, tmp_path, capsys):
        assert main(["index", "quantize", str(tmp_path / "ghost.npz")]) == 2
        assert capsys.readouterr().err

    def test_lifecycle_after_quantize_keeps_sidecar_fresh(self, saved):
        """rm --compact on a quantized layout rewrites the sidecar in
        lockstep — never stale int8 next to mutated fp vectors."""
        import numpy as np

        from repro.index import open_index
        from repro.retrieval import quantize_rows

        path, _vectors = saved
        assert main(["index", "quantize", str(path)]) == 0
        assert main(["index", "rm", str(path), "k000", "--compact"]) == 0
        reloaded = open_index(path, quantized=True)
        want = quantize_rows(reloaded.lsh.vectors())
        got = reloaded.lsh.quantized_arrays()
        for got_arr, want_arr in zip(got, want):
            assert np.array_equal(got_arr, want_arr)

    def test_quantize_sharded_layout(self, tmp_path):
        import numpy as np

        from repro.index import IndexSpec, ShardedIndex, open_index

        rng = np.random.default_rng(1)
        sharded = ShardedIndex.create(
            IndexSpec(kind="vector", dim=8, seed=0), 3)
        vectors = rng.standard_normal((30, 8))
        sharded.add_batch([f"s{i:03d}" for i in range(30)], vectors)
        path = sharded.save(tmp_path / "layout")
        assert main(["index", "quantize", str(path)]) == 0
        reopened = open_index(path, quantized=True)
        assert reopened.quantized and reopened.use_quantized
        plain = open_index(path)
        want = [[(h.key, h.score) for h in hits]
                for hits in plain.query_many(vectors[:3], k=5)]
        got = [[(h.key, h.score) for h in hits]
               for hits in reopened.query_many(vectors[:3], k=5)]
        assert got == want


class TestCommandModules:
    """Each command group's module is imported only when one of its
    commands parses, and a refusal is one stderr message plus exit 2."""

    def test_stats_leaves_the_serving_stack_unimported(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys\n"
                "from repro.cli import main\n"
                "assert main(['stats', 'webtables', '--n-tables', '4']) == 0\n"
                "print(sorted(name for name in sys.modules if name in\n"
                "    ('repro.serve', 'repro.catalog', 'repro.cache',\n"
                "     'repro.cluster')))\n")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("command", [
        [name] if group is None else [group, name]
        for group, name, _module, _help in _COMMANDS])
    def test_every_command_parses_its_help(self, command, capsys):
        """--help loads the command's module, so an entry that names a
        missing module or function fails here."""
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args([*command, "--help"])
        assert exited.value.code == 0
        assert capsys.readouterr().out.startswith(
            f"usage: repro.cli {' '.join(command)}")

    def test_refusal_is_one_stderr_message_and_exit_2(self, monkeypatch,
                                                      capsys):
        from repro.cli import CliError, corpus

        def refuse(args):
            raise CliError("refused: first line\nsecond line")

        monkeypatch.setattr(corpus, "cmd_stats", refuse)
        assert main(["stats", "webtables"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "refused: first line\nsecond line\n"
        assert captured.out == ""

    def test_a_bug_in_a_command_keeps_its_traceback(self, monkeypatch):
        from repro.cli import corpus

        def broken(args):
            raise KeyError("a bug, not a refusal")

        monkeypatch.setattr(corpus, "cmd_stats", broken)
        with pytest.raises(KeyError, match="a bug, not a refusal"):
            main(["stats", "webtables"])
