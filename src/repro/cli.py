"""Command-line interface for the TabBiN reproduction.

Subcommands::

    python -m repro.cli stats    <dataset>                 corpus statistics
    python -m repro.cli train    <dataset> --out DIR       pre-train TabBiN
    python -m repro.cli evaluate <dataset> [--model DIR]   run CC/TC/EC
    python -m repro.cli encode   <dataset> --table N       show Figure-3 style
                                                           token encoding
    python -m repro.cli index build <dataset> --out DIR    batch-encode the
                                                           corpus into table +
                                                           column indexes
                                                           (--shards N emits
                                                           the sharded layout)
    python -m repro.cli index query <dataset> --index DIR  top-k neighbours of
                                                           a table (or one of
                                                           its columns);
                                                           --batch FILE runs
                                                           many queries from a
                                                           JSONL/npz file,
                                                           --jobs N fans shard
                                                           work over N threads
    python -m repro.cli index rm      <index> KEY...       tombstone entries
    python -m repro.cli index compact <index>              reclaim tombstones
    python -m repro.cli index merge   --out OUT A B...     merge saved indexes
                                                           (dedupes by
                                                           fingerprint)
    python -m repro.cli index quantize <index>             retrofit an int8
                                                           sidecar in place
                                                           (serve --quantized
                                                           then shortlists in
                                                           int8 and reranks
                                                           exactly)
    python -m repro.cli catalog init <dir>                 start an empty
                                                           catalog.json
    python -m repro.cli catalog add  <dir> --name N        register a saved
                              --path P [--default]         index under a name
                                                           (kind + checkpoint
                                                           recorded from the
                                                           layout itself)
    python -m repro.cli catalog list <dir>                 show every entry
                                                           with its live spec
    python -m repro.cli serve <index-or-catalog>           HTTP retrieval
                                                           server: POST /query
                                                           (optional "index"
                                                           name routes within
                                                           a catalog),
                                                           GET /indexes,
                                                           GET /healthz,
                                                           GET /stats;
                                                           micro-batched,
                                                           memory-mapped and
                                                           lazily opened by
                                                           default (--max-open
                                                           caps residency),
                                                           graceful drain on
                                                           SIGINT/SIGTERM
    python -m repro.cli serve-shard <layout> --port N      one cluster shard
                                                           server (the
                                                           per-shard half of
                                                           scatter-gather)
    python -m repro.cli serve --cluster topology.json      coordinator over a
                                                           fleet of shard
                                                           servers — same
                                                           endpoints and
                                                           rankings as local
                                                           serve

Saved indexes are opened through :func:`repro.index.open_index`, so
every lifecycle command accepts either layout — a single ``.npz`` file
or a sharded directory (``MANIFEST.json`` + ``shard-XXXX.npz``) —
transparently; ``merge`` keeps the first input's layout.

Datasets are the five generated corpora (webtables, covidkg, cancerkg,
saus, cius); all runs are seeded and CPU-sized.
"""

from __future__ import annotations

import argparse
import sys

from .core import TabBiNConfig, TabBiNEmbedder
from .datasets import PROFILES, corpus_stats, load_dataset
from .eval import (
    ResultsTable,
    collect_entities,
    column_clustering,
    entity_clustering,
    table_clustering,
)


#: Count-like flags share one minimum-value rule; each entry is
#: ``(minimum, message)`` — the messages are word-for-word what the
#: historical per-command copies printed (tests pin them) — so no
#: subcommand's wording can drift from the others.  ``serve``'s own
#: knobs are checked by :class:`~repro.serve.ServeConfig` instead.
_COUNT_FLAG_MESSAGES = {
    "workers": (1, "--workers must be positive"),
    "jobs": (1, "--jobs must be positive"),
    "shards": (1, "--shards must be at least 1"),
    "k": (1, "-k/--k must be at least 1"),
    "chunk": (1, "--chunk must be at least 1"),
}


def _validate_counts(args: argparse.Namespace, *names: str) -> int:
    """Shared validation for the count-like flags (``--jobs``,
    ``--workers``, ``-k``, ...): each must meet its per-flag minimum
    when given (``None`` means the flag was omitted and is fine).
    Prints one stderr line per offending flag and returns 2; returns 0
    when all pass.  This used to be copy-pasted at three call sites,
    which is exactly how ``serve --workers`` could have drifted from
    ``index build --workers`` — every exit-2 path now runs through here
    and is covered by one parametrized test
    (tests/test_cli_validation.py)."""
    code = 0
    for name in names:
        value = getattr(args, name, None)
        minimum, message = _COUNT_FLAG_MESSAGES[name]
        if value is not None and value < minimum:
            print(message, file=sys.stderr)
            code = 2
    return code


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dataset", choices=sorted(PROFILES),
                        help="which generated corpus to use")
    parser.add_argument("--n-tables", type=int, default=24,
                        help="corpus size (default 24)")
    parser.add_argument("--seed", type=int, default=0)


def cmd_stats(args: argparse.Namespace) -> int:
    tables = load_dataset(args.dataset, n_tables=args.n_tables, seed=args.seed)
    stats = corpus_stats(tables)
    out = ResultsTable(f"Corpus statistics: {args.dataset}", columns=["value"])
    out.add("tables", "value", stats.n_tables)
    out.add("avg rows", "value", f"{stats.avg_rows:.1f}")
    out.add("avg cols", "value", f"{stats.avg_cols:.1f}")
    out.add("non-relational", "value", f"{stats.frac_non_relational:.0%}")
    out.add("with VMD", "value", stats.n_with_vmd)
    out.add("hierarchical metadata", "value", stats.n_hierarchical)
    out.add("nested", "value", stats.n_nested)
    for entity_type, count in sorted(stats.entity_counts.items()):
        out.add(f"entities: {entity_type}", "value", count)
    out.show()
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    tables = load_dataset(args.dataset, n_tables=args.n_tables, seed=args.seed)
    print(f"Pre-training TabBiN on {len(tables)} {args.dataset} tables "
          f"({args.steps} steps per segment model) ...")
    embedder, stats = TabBiNEmbedder.build(
        tables, config=TabBiNConfig.small(), steps=args.steps,
        vocab_size=args.vocab_size, seed=args.seed,
    )
    for segment, s in stats.items():
        # A segment whose batches hold no maskable token (webtables'
        # vmd) trains no step and records no loss.
        trace = (f"loss {s.losses[0]:.3f} -> {s.final_loss:.3f}" if s.losses
                 else "no maskable tokens")
        print(f"  {segment:7s} {trace} ({s.steps} steps)")
    if args.out:
        embedder.save(args.out)
        print(f"Saved checkpoint to {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    tables = load_dataset(args.dataset, n_tables=args.n_tables, seed=args.seed)
    embedder = _load_or_train(args, tables)
    out = ResultsTable(f"TabBiN on {args.dataset} (MAP/MRR@{args.k})",
                       columns=["result", "queries"])
    cc = column_clustering(tables, embedder.column_embedding,
                           k=args.k, max_queries=args.max_queries)
    out.add("Column Clustering", "result", str(cc))
    out.add("Column Clustering", "queries", cc.n_queries)
    tc = table_clustering(tables, embedder.table_embedding, k=args.k)
    out.add("Table Clustering", "result", str(tc))
    out.add("Table Clustering", "queries", tc.n_queries)
    entities = collect_entities(tables, max_per_type=25)
    if len(entities) >= 2:
        ec = entity_clustering(entities, embedder.entity_embedding,
                               k=args.k, max_queries=args.max_queries)
        out.add("Entity Clustering", "result", str(ec))
        out.add("Entity Clustering", "queries", ec.n_queries)
    out.show()
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    from .core import TabBiNSerializer, corpus_texts
    from .text import TYPE_NAMES, TypeInference, WordPieceTokenizer

    tables = load_dataset(args.dataset, n_tables=args.n_tables, seed=args.seed)
    if not 0 <= args.table < len(tables):
        print(f"--table must be in [0, {len(tables)})", file=sys.stderr)
        return 2
    table = tables[args.table]
    tokenizer = WordPieceTokenizer.train(corpus_texts(tables),
                                         vocab_size=args.vocab_size)
    config = TabBiNConfig.small().with_vocab(len(tokenizer.vocab))
    serializer = TabBiNSerializer(tokenizer, TypeInference(), config)
    seq = serializer.serialize(table, args.segment)[0]
    print(f"{table}\ncaption: {table.caption}\n")
    header = f"{'pos':>3}  {'token':16} {'num':12} {'cpos':>4} " \
             f"{'coords (vr,vc,hr,hc,nr,nc)':28} {'type':12} feat"
    print(header)
    for pos in range(min(len(seq), args.limit)):
        token = tokenizer.vocab.token(int(seq.token_ids[pos]))
        num = ",".join(str(int(x)) for x in seq.numeric[pos])
        coords = ",".join(str(int(x)) for x in seq.coords[pos])
        bits = "".join(str(int(b)) for b in seq.features[pos])
        print(f"{pos:>3}  {token:16} {num:12} {int(seq.cell_pos[pos]):>4} "
              f"{coords:28} {TYPE_NAMES[int(seq.type_ids[pos])]:12} {bits}")
    return 0


def _load_or_train(args: argparse.Namespace, tables) -> TabBiNEmbedder:
    if args.model:
        print(f"Loading checkpoint from {args.model} ...")
        return TabBiNEmbedder.load(args.model, TabBiNConfig.small())
    print(f"No checkpoint given; pre-training {args.steps} steps ...")
    embedder, _ = TabBiNEmbedder.build(
        tables, config=TabBiNConfig.small(), steps=args.steps,
        vocab_size=args.vocab_size, seed=args.seed,
    )
    return embedder


def cmd_index_build(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .index import ColumnIndex, TableIndex, save_index

    # Validate before the (expensive) train/load step.
    if _validate_counts(args, "workers", "shards", "jobs"):
        return 2
    if args.jobs is not None and args.shards is None:
        print("--jobs fans per-shard builds, so it requires --shards",
              file=sys.stderr)
        return 2
    tables = load_dataset(args.dataset, n_tables=args.n_tables, seed=args.seed)
    if not tables:
        print("cannot build an index over an empty corpus "
              "(--n-tables must be positive)", file=sys.stderr)
        return 2
    embedder = _load_or_train(args, tables)
    out = Path(args.out)
    embedder.save(out / "model")
    mode = f"{args.workers} workers" if args.workers and args.workers > 1 \
        else "serial"
    print(f"Batch-encoding {len(tables)} tables "
          f"(batch size {args.batch_size}, {mode}) ...")
    corpus_id = {"dataset": args.dataset, "n_tables": args.n_tables,
                 "seed": args.seed}
    if args.shards is not None:
        table_index = TableIndex.build_sharded(
            embedder, tables, shards=args.shards, variant=args.variant,
            seed=args.seed, batch_size=args.batch_size, workers=args.workers,
            build_workers=args.jobs)
        column_index = ColumnIndex.build_sharded(
            embedder, tables, shards=args.shards, seed=args.seed,
            batch_size=args.batch_size, workers=args.workers,
            build_workers=args.jobs)
        table_path, column_path = out / "tables", out / "columns"
    else:
        table_index = TableIndex.build(embedder, tables, variant=args.variant,
                                       seed=args.seed,
                                       batch_size=args.batch_size,
                                       workers=args.workers)
        column_index = ColumnIndex.build(embedder, tables, seed=args.seed,
                                         batch_size=args.batch_size,
                                         workers=args.workers)
        table_path, column_path = out / "tables.npz", out / "columns.npz"
    table_index.corpus = dict(corpus_id)
    column_index.corpus = dict(corpus_id)
    if args.quantize:
        # Attach the int8 sidecar before saving; save() writes the
        # quantized members whenever the sidecar is present.
        table_index.quantize()
        column_index.quantize()
    for name in ("tables", "columns"):
        # The suffixless logical path: the sharded dir lives there, the
        # single-file layout appends .npz.
        _remove_stale_layout(out / name, sharded=args.shards is not None)
    save_index(table_index, table_path)
    save_index(column_index, column_path)
    stats = embedder.store.stats
    summary = ResultsTable(f"Index built: {args.dataset}", columns=["value"])
    summary.add("tables indexed", "value", len(table_index))
    summary.add("columns indexed", "value", len(column_index))
    if args.shards is not None:
        summary.add("shards", "value", args.shards)
        summary.add("shard sizes (tables)", "value",
                    "/".join(str(n) for n in table_index.shard_sizes()))
    if args.quantize:
        summary.add("quantized", "value", "int8 sidecar (exact rerank)")
    summary.add("encoder batches", "value", stats.batches)
    summary.add("sequences encoded", "value", stats.sequences_encoded)
    summary.show()
    layout = "sharded" if args.shards is not None else "single-file"
    print(f"Saved model + {layout} indexes to {out}")
    return 0


def _load_query_batch(path):
    """Read a ``(Q, dim)`` query matrix (plus optional per-query exclude
    keys) from ``--batch FILE``: an ``.npz`` with a ``queries`` array,
    or JSONL where each line is a bare vector array or an object
    ``{"vector": [...], "exclude": "key"}``."""
    import json
    from pathlib import Path

    import numpy as np

    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no query batch file at {path}")
    if path.suffix == ".npz":
        with np.load(path) as archive:
            if "queries" in archive.files:
                queries = archive["queries"]
            elif len(archive.files) == 1:
                queries = archive[archive.files[0]]
            else:
                raise ValueError(f"{path} holds arrays {archive.files}; "
                                 f"expected one named 'queries'")
            queries = np.asarray(queries, float)
        if queries.ndim != 2 or not len(queries):
            raise ValueError(f"{path}: queries must be a non-empty 2-D "
                             f"matrix, got shape {queries.shape}")
        return queries, None
    vectors: list[list[float]] = []
    excludes: list[str | None] = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}:{lineno}: not valid JSON: {error}")
        vector = record.get("vector") if isinstance(record, dict) else record
        if (not isinstance(vector, list) or not vector
                or not all(isinstance(x, (int, float))
                           and not isinstance(x, bool) for x in vector)):
            raise ValueError(f"{path}:{lineno}: each line must be a "
                             f"non-empty numeric vector (or an object with "
                             f"a 'vector' field)")
        if vectors and len(vector) != len(vectors[0]):
            raise ValueError(f"{path}:{lineno}: vector has {len(vector)} "
                             f"dims, earlier queries have {len(vectors[0])}")
        vectors.append(vector)
        excludes.append(record.get("exclude")
                        if isinstance(record, dict) else None)
    if not vectors:
        raise ValueError(f"{path} holds no queries")
    return np.asarray(vectors, float), excludes


def _run_batch_query(args) -> int:
    """``index query --batch``: many raw query vectors, ranked results
    per query as JSON lines (machine-consumable).  The corpus arguments
    are ignored — batch vectors already live in the embedding space, so
    neither the dataset nor the model checkpoint is loaded.

    Output *streams*: queries run through ``query_many`` in chunks of
    ``--chunk`` and each chunk's JSON lines are flushed as soon as it
    completes, so a consumer piping a huge batch sees results
    incrementally instead of waiting for the whole file.  Chunking
    cannot change rankings — every query's result (including its
    brute-force fallback decision) depends only on its own row."""
    import json
    from pathlib import Path

    from .index import open_index

    if args.column is not None:
        print("--batch and --column are mutually exclusive; pick the index "
              "with --kind instead", file=sys.stderr)
        return 2
    try:
        queries, excludes = _load_query_batch(args.batch)
    except (FileNotFoundError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
    index_dir = Path(args.index)
    try:
        index = open_index(index_dir / f"{args.kind}s")
    except FileNotFoundError:
        print(f"no index at {index_dir} (run `index build ... --out "
              f"{index_dir}` first)", file=sys.stderr)
        return 2
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    if index.kind != args.kind:
        print(f"{index_dir} holds a {index.kind!r} index, expected "
              f"{args.kind!r}", file=sys.stderr)
        return 2
    if queries.shape[1] != index.dim:
        print(f"query batch has dim {queries.shape[1]}, index expects "
              f"{index.dim}", file=sys.stderr)
        return 2
    try:
        for start in range(0, len(queries), args.chunk):
            chunk_excludes = (None if excludes is None
                              else excludes[start:start + args.chunk])
            results = index.query_many(queries[start:start + args.chunk],
                                       k=args.k, excludes=chunk_excludes,
                                       jobs=args.jobs)
            for q, hits in enumerate(results, start):
                print(json.dumps({"query": q,
                                  "hits": [{"key": hit.key,
                                            "score": hit.score}
                                           for hit in hits]}), flush=True)
    except BrokenPipeError:
        # The consumer (`head`, a closed socket) stopped reading: stop
        # producing and exit cleanly, Unix-style.  Redirect stdout to
        # devnull so the interpreter's exit-time flush doesn't raise a
        # second BrokenPipeError after we've handled this one.
        import contextlib
        import os

        with contextlib.suppress(Exception):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def cmd_index_query(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .index import open_index

    if _validate_counts(args, "k", "jobs", "chunk"):
        return 2
    if args.batch is not None:
        return _run_batch_query(args)
    tables = load_dataset(args.dataset, n_tables=args.n_tables, seed=args.seed)
    if not 0 <= args.table < len(tables):
        print(f"--table must be in [0, {len(tables)})", file=sys.stderr)
        return 2
    table = tables[args.table]
    if args.column is not None and not 0 <= args.column < table.n_cols:
        print(f"--column must be in [0, {table.n_cols})", file=sys.stderr)
        return 2
    index_dir = Path(args.index)
    wanted = "column" if args.column is not None else "table"
    try:
        embedder = TabBiNEmbedder.load(index_dir / "model", TabBiNConfig.small())
        # open_index sniffs the layout, so `tables` resolves to either
        # the sharded `tables/` directory or the single `tables.npz`.
        index = open_index(index_dir / f"{wanted}s")
    except FileNotFoundError:
        print(f"no index at {index_dir} (run `index build ... --out "
              f"{index_dir}` first)", file=sys.stderr)
        return 2
    except ValueError as error:
        # e.g. a file/manifest from a newer format version — same
        # stderr + exit-2 contract as the lifecycle commands.
        print(str(error), file=sys.stderr)
        return 2
    if index.kind != wanted:
        print(f"{index_dir} holds a {index.kind!r} index, expected "
              f"{wanted!r}", file=sys.stderr)
        return 2
    built_from = index.corpus
    asked = {"dataset": args.dataset, "n_tables": args.n_tables,
             "seed": args.seed}
    if built_from and built_from != asked:
        # Generated corpora are not prefix-stable, so a different
        # dataset/n-tables/seed names different tables entirely.
        print(f"index was built from {built_from}, not {asked}; rerun with "
              f"matching corpus arguments (or rebuild)", file=sys.stderr)
        return 2
    if args.column is not None:
        hits = index.query_column(embedder, table, args.column, k=args.k,
                                  jobs=args.jobs)
        title = (f"Columns similar to {table.caption!r} "
                 f"[{table.column_label(args.column)}]")
        label = lambda hit: f"{hit.meta.get('caption')} [{hit.meta.get('label')}]"
    else:
        hits = index.query_table(embedder, table, k=args.k, jobs=args.jobs)
        title = f"Tables similar to {table.caption!r}"
        label = lambda hit: str(hit.meta.get("caption"))
    out = ResultsTable(title, columns=["score"])
    for hit in hits:
        out.add(label(hit), "score", f"{hit.score:.3f}")
    out.show()
    return 0


def _remove_stale_layout(path, sharded: bool) -> None:
    """Remove the *other* layout's artifact at an output path before
    saving: a leftover manifest directory would out-sniff a fresh
    ``.npz`` in ``open_index`` (silently serving stale results), and a
    leftover file blocks creating the shard directory.  Only artifacts
    this CLI writes are touched — a directory without a manifest is
    left alone (the save will fail loudly instead)."""
    import shutil
    from pathlib import Path

    from .index import MANIFEST_NAME

    path = Path(path)
    if sharded:
        if path.is_file():
            path.unlink()
        sibling = path.with_name(path.name + ".npz")
        if sibling.is_file():
            sibling.unlink()
    elif (path / MANIFEST_NAME).is_file():
        shutil.rmtree(path)


def _open_index_or_report(path: str):
    """Open one saved index (either layout) for a lifecycle command,
    mapping the usual failure modes to a printed error + ``None``.  All
    sniffing, version checks and error wording live in
    :func:`repro.index.open_index`; this only adapts exceptions to the
    CLI's stderr + exit-code contract."""
    from .index import open_index

    try:
        return open_index(path)
    except (FileNotFoundError, ValueError) as error:
        print(str(error), file=sys.stderr)
    return None


def cmd_index_rm(args: argparse.Namespace) -> int:
    index = _open_index_or_report(args.path)
    if index is None:
        return 2
    keys = list(dict.fromkeys(args.keys))    # drop repeated CLI keys
    missing = [key for key in keys if key not in index]
    if missing:
        print(f"key(s) not in index: {', '.join(missing)}", file=sys.stderr)
        return 2
    for key in keys:
        index.remove(key)
    if args.compact:
        index.compact()
    index.save(args.path)
    print(f"Removed {len(keys)} of {len(index) + len(keys)} entries from "
          f"{args.path} ({len(index)} live, {index.n_tombstones} tombstoned)")
    return 0


def cmd_index_compact(args: argparse.Namespace) -> int:
    index = _open_index_or_report(args.path)
    if index is None:
        return 2
    dropped = index.compact()
    index.save(args.path)
    print(f"Compacted {args.path}: reclaimed {dropped} tombstoned slots, "
          f"{len(index)} live entries")
    return 0


def cmd_index_quantize(args: argparse.Namespace) -> int:
    """``index quantize``: retrofit an int8 sidecar onto a saved index.

    Opens the layout *eagerly* (never mmapped — the save below
    overwrites the very file a map would be reading from), rebuilds the
    per-vector int8 sidecar from the fp vectors, and saves in place.
    Idempotent: re-running on an already-quantized layout refreshes the
    sidecar from the current vectors."""
    from .index import open_index

    try:
        index = open_index(args.path, mmap=False)
    except (FileNotFoundError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
    already = index.quantized
    count = index.quantize()
    index.save(args.path)
    verb = "Refreshed" if already else "Quantized"
    print(f"{verb} {args.path}: int8 sidecar over {count} vectors "
          f"({len(index)} live entries); serve with --quantized or open "
          f"with open_index(..., quantized=True)")
    return 0


def cmd_index_merge(args: argparse.Namespace) -> int:
    if len(args.paths) < 2:
        print("index merge needs at least two input indexes",
              file=sys.stderr)
        return 2
    merged = _open_index_or_report(args.paths[0])
    if merged is None:
        return 2
    total_added = 0
    for path in args.paths[1:]:
        other = _open_index_or_report(path)
        if other is None:
            return 2
        try:
            total_added += merged.merge(other)
        except ValueError as error:
            print(f"cannot merge {path}: {error}", file=sys.stderr)
            return 2
    from .index import ShardedIndex

    # Re-merging to the same --out with a different first-input layout
    # must replace the old artifact, not coexist with (and lose to) it.
    _remove_stale_layout(args.out, sharded=isinstance(merged, ShardedIndex))
    merged.save(args.out)
    print(f"Merged {len(args.paths)} indexes into {args.out}: "
          f"{len(merged)} entries ({total_added} added beyond the first "
          f"index; duplicates fingerprint-deduped)")
    return 0


def cmd_catalog_init(args: argparse.Namespace) -> int:
    """``catalog init``: start an empty ``catalog.json`` in a directory."""
    from pathlib import Path

    from .catalog import CATALOG_NAME, Catalog

    directory = Path(args.dir)
    manifest = directory / CATALOG_NAME
    if manifest.exists():
        print(f"{manifest} already exists; use `catalog add` to register "
              f"indexes in it", file=sys.stderr)
        return 2
    written = Catalog(root=directory).save()
    print(f"Initialised empty catalog at {written}; register indexes with "
          f"`catalog add {args.dir} --name NAME --path PATH`")
    return 0


def cmd_catalog_add(args: argparse.Namespace) -> int:
    """``catalog add``: register one saved index under a name.

    The entry's ``kind`` and ``model_id`` are read from the layout
    itself (:func:`~repro.index.read_index_spec` — manifest/payload
    only, no vector data), so the manifest can never disagree with the
    index it points at the moment it is written."""
    from .catalog import Catalog, CatalogEntry
    from .index import read_index_spec

    try:
        catalog = Catalog.load(args.dir)
    except FileNotFoundError:
        print(f"no catalog at {args.dir} (run `catalog init {args.dir}` "
              f"first)", file=sys.stderr)
        return 2
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    entry = CatalogEntry(name=args.name, path=args.path, kind="vector")
    try:
        spec, format_version = read_index_spec(catalog.resolve_path(entry))
    except FileNotFoundError as error:
        print(f"cannot add {args.name!r}: {error} (paths resolve against "
              f"the catalog directory unless absolute)", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"cannot add {args.name!r}: {error}", file=sys.stderr)
        return 2
    entry.kind = spec.kind
    entry.model_id = spec.model_id
    if args.replace and args.name in catalog:
        generation = catalog.replace(entry)
        verb = f"Replaced (generation {generation})"
    else:
        try:
            catalog.add(entry)
        except ValueError as error:
            if args.name in catalog:
                print(f"{error} (use --replace to swap it in place and "
                      f"bump its generation)", file=sys.stderr)
            else:
                print(str(error), file=sys.stderr)
            return 2
        verb = "Added"
    if args.default:
        catalog.set_default(args.name)
    catalog.save()
    marker = " (default)" if catalog.default_name == args.name else ""
    print(f"{verb} {args.name!r} -> {args.path} "
          f"({spec.describe()} format=v{format_version}) "
          f"[{len(catalog)} entries]{marker}")
    return 0


def cmd_catalog_list(args: argparse.Namespace) -> int:
    """``catalog list``: every entry with its live on-disk spec.

    An entry whose layout no longer opens is *listed*, marked
    unreadable — a stale catalog should be visible, not a crash."""
    from .catalog import Catalog
    from .index import read_index_spec

    try:
        catalog = Catalog.load(args.dir)
    except FileNotFoundError:
        print(f"no catalog at {args.dir} (run `catalog init {args.dir}` "
              f"first)", file=sys.stderr)
        return 2
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(f"{args.dir}: {len(catalog)} "
          f"{'entry' if len(catalog) == 1 else 'entries'}")
    for entry in catalog:
        marker = "*" if entry.name == catalog.default_name else " "
        try:
            spec, format_version = read_index_spec(
                catalog.resolve_path(entry))
        except (FileNotFoundError, ValueError) as error:
            print(f"{marker} {entry.name:<16} UNREADABLE ({error}) "
                  f"path={entry.path}")
            continue
        print(f"{marker} {entry.name:<16} {spec.describe()} "
              f"format=v{format_version} path={entry.path}")
    return 0


def _serve_until_signalled(args: argparse.Namespace, build, banner=None,
                           label: str = "") -> int:
    """The one boot path of every serving process: ``build()`` the
    server (a target that will not open, a refused setting or a busy
    port is one ``label``-prefixed stderr line and exit 2), serve until
    SIGINT/SIGTERM, drain.  ``banner(server)`` is the first stdout line
    — harnesses parse its ``http://HOST:PORT`` token; a pre-fork worker
    passes none and stays silent, its supervisor speaks for the fleet.
    """
    import asyncio
    import signal

    async def _run() -> int:
        try:
            server = build()
            await server.start()
        except (FileNotFoundError, ValueError) as error:
            print(f"{label}{error}", file=sys.stderr)
            return 2
        except OSError as error:
            print(f"{label}cannot bind {args.host}:{args.port}: {error}",
                  file=sys.stderr)
            return 2
        if banner is not None:
            print(banner(server), flush=True)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-posix
                pass
        try:
            await stop.wait()
        finally:
            if banner is not None:
                print("Draining in-flight requests ...", flush=True)
            await server.shutdown()
            if banner is not None:
                print(f"Served {server.requests_total} requests "
                      f"({server.queries_total} queries)")
        return 0

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        return 0


def cmd_serve_shard(args: argparse.Namespace) -> int:
    """``serve-shard``: run one cluster shard server.

    Serves the per-shard half of the scatter-gather contract
    (``POST /partial_query`` / ``POST /brute_query`` / ``GET
    /healthz``) over one saved layout — a single ``.npz`` or a sharded
    directory whose shards are co-located on this box.  A coordinator
    (``serve --cluster``) fans query ticks across a fleet of these.
    Serves until SIGINT/SIGTERM, then drains in-flight requests and
    exits 0.
    """
    from .cluster import ShardServer
    from .index import open_index

    def build():
        return ShardServer(open_index(args.path, mmap=not args.no_mmap),
                           host=args.host, port=args.port,
                           log_path=args.log_file)

    def banner(server) -> str:
        # The harness parses host:port out of this line — keep the URL
        # as the banner's final colon-bearing token.
        return (f"Serving shard layout ({len(server.index)} entries, "
                f"{len(server.shards)} local shard(s), "
                f"{'mmap' if not args.no_mmap else 'eager'}) on "
                f"http://{args.host}:{server.port} — POST /partial_query, "
                f"POST /brute_query, GET /healthz")

    return _serve_until_signalled(args, build, banner)


def _load_serving_catalog(path: str):
    from .catalog import Catalog

    catalog = Catalog.load(path)
    if not len(catalog):
        raise ValueError(f"{path} is an empty catalog; register indexes "
                         f"with `catalog add` before serving")
    return catalog


def _open_serve_target(args: argparse.Namespace, config):
    """``serve PATH``'s target: a catalog directory's catalog (entries
    open lazily), else the opened layout."""
    from .catalog import Catalog
    from .index import open_index

    if Catalog.handles(args.path):
        return _load_serving_catalog(args.path)
    return open_index(args.path, mmap=config.mmap)


def _serve_config(args: argparse.Namespace):
    """``serve``'s tuning flags as the one validated
    :class:`~repro.serve.ServeConfig` (``ValueError``, one line per bad
    flag, if any is refused)."""
    from .serve import ServeConfig

    return ServeConfig(max_batch=args.max_batch,
                       max_wait_ms=args.max_wait_ms, jobs=args.jobs,
                       max_backlog=args.max_backlog,
                       cache_size=0 if args.no_cache else args.cache_size,
                       cache_ttl=args.cache_ttl, max_open=args.max_open,
                       mmap=not args.no_mmap, quantized=args.quantized,
                       overfetch=args.overfetch, margin=args.margin)


def _serve_prefork(args: argparse.Namespace, config) -> int:
    """``serve --workers N``: a pre-fork supervisor plus N worker
    processes on one shared port.

    The parent holds the already-validated ``config``, checks the
    target *cheaply* (manifest/spec reads only — no vector data, no
    thread pools, nothing unsafe to fork over), binds the listen
    address once so ``--port 0`` resolves to a single shared port, then
    forks.  Each worker re-opens the target itself — memory-mapped
    unless ``--no-mmap``, so all workers map the same shard files and
    the kernel page cache keeps **one** resident copy of the vectors —
    and runs the ordinary :class:`~repro.serve.server.RetrievalServer`
    under that same config, with its own caches and dispatchers.  SIGTERM/SIGINT drain every worker gracefully; a
    crashed worker is restarted with capped backoff; ``GET /stats``
    answers with per-worker sections plus a fleet aggregate.
    """
    import os

    from .catalog import Catalog
    from .index import read_index_spec
    from .serve import LOG_ENV, RetrievalServer
    from .serve.prefork import REUSEPORT_AVAILABLE, PreforkSupervisor

    try:
        if Catalog.handles(args.path):
            catalog = _load_serving_catalog(args.path)
            described = (f"catalog of {len(catalog)} indexes "
                         f"(default {catalog.default_name!r})")
        else:
            spec, _version = read_index_spec(args.path)
            described = f"{spec.kind} index"
    except (FileNotFoundError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2

    log_base = args.log_file or os.environ.get(LOG_ENV) or None

    def worker_main(worker_id: int, sock) -> int:
        # Runs in the forked child: the target, the server, and every
        # cache/dispatcher are built HERE, post-fork, so workers share
        # nothing but the listen port and the mmapped file pages.  A
        # failed boot's exit code 2 is the supervisor's fatal-config
        # signal: a target that won't open can never open on restart
        # either, so the fleet shuts down instead of crash-looping.
        def build():
            return RetrievalServer(
                _open_serve_target(args, config), args.host, config=config,
                sock=sock, worker_id=worker_id,
                stats_dir=supervisor.stats_dir,
                log_path=(f"{log_base}.worker{worker_id}" if log_base
                          else None))

        return _serve_until_signalled(args, build,
                                      label=f"worker {worker_id}: ")

    supervisor = PreforkSupervisor(worker_main, args.workers,
                                   host=args.host, port=args.port)
    try:
        supervisor.start()
    except OSError as error:
        print(f"cannot bind {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 2
    mode = ("SO_REUSEPORT" if REUSEPORT_AVAILABLE
            else "shared inherited socket")
    print(f"Serving {described} with {args.workers} pre-fork workers "
          f"({mode}, {'mmap' if config.mmap else 'eager'} pages "
          f"shared via page cache) on "
          f"http://{args.host}:{supervisor.port} — POST /query, "
          f"GET /healthz, GET /stats (per-worker + aggregate)",
          flush=True)
    code = supervisor.run()
    print(f"All {args.workers} workers drained "
          f"({supervisor.restarts_total} restart(s))", flush=True)
    return code


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: run the async retrieval server.

    ``path`` may be one saved index (single ``.npz`` or sharded
    directory) — opened once, memory-mapped unless ``--no-mmap`` — or a
    catalog directory, whose entries open lazily as queries route to
    them (``--max-open`` caps how many stay resident).  Alternatively
    ``--cluster topology.json`` serves a *distributed* index: a
    coordinator over the listed shard servers, same endpoints, same
    rankings.  Serves until SIGINT/SIGTERM, which triggers a graceful
    drain: in-flight requests complete, every open dispatcher flushes,
    then the process exits 0.
    """
    from .catalog import Catalog
    from .serve import RetrievalServer

    if (args.path is None) == (args.cluster is None):
        print("serve takes exactly one target: a saved index / catalog "
              "path, or --cluster topology.json", file=sys.stderr)
        return 2
    # Every refused flag is reported in one pass: --workers here, the
    # serve knobs by ServeConfig.
    bad_workers = _validate_counts(args, "workers")
    try:
        config = _serve_config(args)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    if bad_workers:
        return 2
    if args.cluster is not None and config.quantized:
        print("--quantized applies to locally opened layouts; a cluster "
              "coordinator's shard servers quantize on their own side",
              file=sys.stderr)
        return 2
    if args.workers > 1:
        if args.cluster is not None:
            print("--workers pre-forks local serving and cannot combine "
                  "with --cluster; run one coordinator process per port "
                  "instead", file=sys.stderr)
            return 2
        return _serve_prefork(args, config)
    remote = None
    if args.cluster is not None:
        from .cluster import ClusterError, RemoteShardedIndex, Topology

        try:
            remote = RemoteShardedIndex.connect(Topology.load(args.cluster))
        except (FileNotFoundError, ValueError, ClusterError) as error:
            print(str(error), file=sys.stderr)
            return 2

    def build():
        target = (remote if remote is not None
                  else _open_serve_target(args, config))
        return RetrievalServer(target, args.host, args.port, config=config,
                               log_path=args.log_file)

    def banner(server) -> str:
        url = f"http://{args.host}:{server.port}"
        mode = "mmap" if config.mmap else "eager"
        if remote is not None:
            return (f"Serving distributed index ({len(remote)} entries, "
                    f"{remote.n_shards} shard(s) across {remote.n_servers} "
                    f"server(s) per {args.cluster}) on {url} — POST /query, "
                    f"GET /healthz, GET /stats")
        if Catalog.handles(args.path):
            catalog = server.handle.catalog
            names = ", ".join(entry.name for entry in catalog)
            cap = "all resident" if config.max_open is None \
                else f"max {config.max_open} open"
            return (f"Serving catalog of {len(catalog)} indexes ({names}; "
                    f"default {catalog.default_name!r}, {mode}, {cap}) on "
                    f"{url} — POST /query (optional \"index\" route), "
                    f"GET /indexes, GET /healthz, GET /stats")
        if config.quantized:
            mode += ", int8 shortlist + exact rerank"
        index = server.index
        return (f"Serving {index.kind} index ({len(index)} entries, "
                f"{mode}) on {url} — POST /query, GET /healthz, GET /stats")

    try:
        return _serve_until_signalled(args, build, banner)
    finally:
        if remote is not None:
            remote.close()


def _add_listen_flags(parser: argparse.ArgumentParser, port: int) -> None:
    """The flags every serving process takes (``serve``, ``serve-shard``)."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=port,
                        help=f"listen port (0 picks an ephemeral port; "
                             f"default {port})")
    parser.add_argument("--no-mmap", action="store_true",
                        help="read vector matrices eagerly instead of "
                             "memory-mapping them")
    parser.add_argument("--log-file", default=None,
                        help="append an access/drain log to this file "
                             "(default: $REPRO_SERVE_LOG if set)")


def build_parser() -> argparse.ArgumentParser:
    from .serve.config import ServeConfig

    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="TabBiN reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="corpus statistics")
    _add_common(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_train = sub.add_parser("train", help="pre-train TabBiN")
    _add_common(p_train)
    p_train.add_argument("--steps", type=int, default=80)
    p_train.add_argument("--vocab-size", type=int, default=700)
    p_train.add_argument("--out", default=None, help="checkpoint directory")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="run CC/TC/EC")
    _add_common(p_eval)
    p_eval.add_argument("--steps", type=int, default=80)
    p_eval.add_argument("--vocab-size", type=int, default=700)
    p_eval.add_argument("--model", default=None, help="checkpoint directory")
    p_eval.add_argument("--k", type=int, default=20)
    p_eval.add_argument("--max-queries", type=int, default=40)
    p_eval.set_defaults(func=cmd_evaluate)

    p_encode = sub.add_parser("encode", help="show token encoding")
    _add_common(p_encode)
    p_encode.add_argument("--table", type=int, default=0)
    p_encode.add_argument("--segment", default="row",
                          choices=("row", "column", "hmd", "vmd"))
    p_encode.add_argument("--limit", type=int, default=40)
    p_encode.add_argument("--vocab-size", type=int, default=500)
    p_encode.set_defaults(func=cmd_encode)

    p_index = sub.add_parser("index", help="corpus indexing")
    index_sub = p_index.add_subparsers(dest="index_command", required=True)

    p_build = index_sub.add_parser("build", help="batch-encode a corpus into "
                                                 "table + column indexes")
    _add_common(p_build)
    p_build.add_argument("--out", required=True, help="index directory")
    p_build.add_argument("--model", default=None, help="checkpoint directory")
    p_build.add_argument("--steps", type=int, default=80)
    p_build.add_argument("--vocab-size", type=int, default=700)
    p_build.add_argument("--variant", default="tblcomp1",
                         choices=("row", "tblcomp1"),
                         help="table embedding composition")
    p_build.add_argument("--batch-size", type=int, default=32,
                         help="sequences per encoder forward")
    p_build.add_argument("--workers", type=int, default=None,
                         help="scatter encoder batches across N processes "
                              "(results identical to serial; default serial)")
    p_build.add_argument("--shards", type=int, default=None,
                         help="emit a sharded directory layout with N shards "
                              "(MANIFEST.json + shard-XXXX.npz) instead of "
                              "one .npz per index")
    p_build.add_argument("--jobs", type=int, default=None,
                         help="fan the per-shard builds across N processes "
                              "(requires --shards; results identical to "
                              "serial)")
    p_build.add_argument("--quantize", action="store_true",
                         help="also write a per-vector int8 sidecar "
                              "alongside the fp vectors; `serve "
                              "--quantized` then scores candidates in "
                              "int8 and reranks the shortlist exactly "
                              "(rankings identical)")
    p_build.set_defaults(func=cmd_index_build)

    p_query = index_sub.add_parser("query", help="top-k neighbours from a "
                                                 "built index")
    _add_common(p_query)
    p_query.add_argument("--index", required=True, help="index directory "
                                                        "(from `index build`)")
    p_query.add_argument("--table", type=int, default=0,
                         help="query table position in the corpus")
    p_query.add_argument("--column", type=int, default=None,
                         help="query this column instead of the whole table")
    p_query.add_argument("--k", type=int, default=5)
    p_query.add_argument("--batch", default=None, metavar="FILE",
                         help="run many queries from FILE (.npz with a "
                              "'queries' matrix, or JSONL vectors) and print "
                              "ranked results per query as JSON lines; the "
                              "corpus arguments are ignored")
    p_query.add_argument("--kind", default="table",
                         choices=("table", "column"),
                         help="which index --batch queries target "
                              "(default: table)")
    p_query.add_argument("--jobs", type=int, default=None,
                         help="fan per-shard query work across N threads "
                              "(sharded layouts; results identical to "
                              "serial)")
    p_query.add_argument("--chunk", type=int, default=64,
                         help="with --batch, run queries through "
                              "query_many this many at a time, streaming "
                              "each chunk's JSON lines as it completes "
                              "(default 64; rankings are unaffected)")
    p_query.set_defaults(func=cmd_index_query)

    p_rm = index_sub.add_parser("rm", help="tombstone entries of a saved "
                                           "index by key")
    p_rm.add_argument("path", help="saved index (.npz file or sharded dir)")
    p_rm.add_argument("keys", nargs="+", metavar="KEY",
                      help="fingerprint keys to remove")
    p_rm.add_argument("--compact", action="store_true",
                      help="reclaim the tombstoned slots before saving")
    p_rm.set_defaults(func=cmd_index_rm)

    p_compact = index_sub.add_parser("compact", help="rebuild a saved index "
                                                     "without its tombstones")
    p_compact.add_argument("path", help="saved index (.npz file or sharded "
                                        "dir)")
    p_compact.set_defaults(func=cmd_index_compact)

    p_quantize = index_sub.add_parser(
        "quantize", help="retrofit an int8 sidecar onto a saved index "
                         "(in place; idempotent refresh if already "
                         "quantized)")
    p_quantize.add_argument("path", help="saved index (.npz file or "
                                         "sharded dir)")
    p_quantize.set_defaults(func=cmd_index_quantize)

    p_merge = index_sub.add_parser("merge", help="merge saved indexes "
                                                 "(fingerprint-deduped)")
    p_merge.add_argument("paths", nargs="+", metavar="PATH",
                         help="two or more saved indexes (.npz files or "
                              "sharded dirs, mixable)")
    p_merge.add_argument("--out", required=True,
                         help="output path (written in the first input's "
                              "layout)")
    p_merge.set_defaults(func=cmd_index_merge)

    p_catalog = sub.add_parser("catalog", help="manage a catalog of named "
                                               "indexes for multi-index "
                                               "serving")
    catalog_sub = p_catalog.add_subparsers(dest="catalog_command",
                                           required=True)

    p_cinit = catalog_sub.add_parser("init", help="start an empty "
                                                  "catalog.json")
    p_cinit.add_argument("dir", help="catalog directory (created if needed)")
    p_cinit.set_defaults(func=cmd_catalog_init)

    p_cadd = catalog_sub.add_parser("add", help="register a saved index "
                                                "under a name")
    p_cadd.add_argument("dir", help="catalog directory (from `catalog init`)")
    p_cadd.add_argument("--name", required=True,
                        help="name queries route to ({\"index\": NAME})")
    p_cadd.add_argument("--path", required=True,
                        help="saved index (.npz file or sharded dir); "
                             "relative paths resolve against the catalog "
                             "directory, keeping it relocatable")
    p_cadd.add_argument("--default", action="store_true",
                        help="make this entry the default route (requests "
                             "without an \"index\" field)")
    p_cadd.add_argument("--replace", action="store_true",
                        help="allow swapping an existing entry in place, "
                             "bumping its manifest generation so cached "
                             "results against the old layout are detectably "
                             "stale")
    p_cadd.set_defaults(func=cmd_catalog_add)

    p_clist = catalog_sub.add_parser("list", help="show every entry with "
                                                  "its live on-disk spec")
    p_clist.add_argument("dir", help="catalog directory")
    p_clist.set_defaults(func=cmd_catalog_list)

    p_shard = sub.add_parser("serve-shard", help="serve one cluster "
                                                 "shard's partial-query "
                                                 "surface over HTTP")
    p_shard.add_argument("path", help="saved layout this box holds: a "
                                      "single .npz shard or a sharded "
                                      "directory of co-located shards")
    _add_listen_flags(p_shard, port=8100)
    p_shard.set_defaults(func=cmd_serve_shard)

    p_serve = sub.add_parser("serve", help="serve a saved index, a "
                                           "catalog of them, or a cluster "
                                           "of shard servers over HTTP "
                                           "(micro-batched, memory-mapped)")
    p_serve.add_argument("path", nargs="?", default=None,
                         help="saved index (.npz file or sharded "
                              "dir), e.g. out/tables, or a catalog "
                              "directory holding catalog.json "
                              "(omit with --cluster)")
    p_serve.add_argument("--cluster", default=None, metavar="TOPOLOGY",
                         help="serve a distributed index instead of a "
                              "local path: topology.json listing shard "
                              "servers ({\"shards\": [{\"host\": ..., "
                              "\"port\": ...}, ...]})")
    p_serve.add_argument("--max-backlog", type=int, default=None,
                         help="bound on queries pending in a micro-batch "
                              "queue; overflow is answered 429 + "
                              "Retry-After (default: unbounded)")
    p_serve.add_argument("--workers", type=int, default=1,
                         help="pre-fork this many worker processes "
                              "sharing the listen port (SO_REUSEPORT "
                              "where the platform has it, a shared "
                              "inherited socket elsewhere) and — via "
                              "mmap — the same resident vector pages; "
                              "crashed workers restart with capped "
                              "backoff; 1 (default) serves single-"
                              "process with no supervisor")
    _add_listen_flags(p_serve, port=8080)
    p_serve.add_argument("--max-batch", type=int,
                         default=ServeConfig.max_batch,
                         help="flush a micro-batch once this many queries "
                              "are pending (default %(default)s)")
    p_serve.add_argument("--max-wait-ms", type=float,
                         default=ServeConfig.max_wait_ms,
                         help="flush a micro-batch this long after its "
                              "first query arrives (default %(default)s)")
    p_serve.add_argument("--jobs", type=int, default=None,
                         help="fan per-shard work of each micro-batch over "
                              "N threads (sharded layouts)")
    p_serve.add_argument("--max-open", type=int, default=None,
                         help="cap on concurrently open catalog entries "
                              "(LRU-evicted beyond it; default unbounded; "
                              "ignored for a bare index path)")
    p_serve.add_argument("--cache-size", type=int,
                         default=ServeConfig.cache_size,
                         help="per-index result-cache bound: max entries "
                              "(default %(default)s; 0 disables caching)")
    p_serve.add_argument("--cache-ttl", type=float, default=None,
                         help="expire cache entries after this many "
                              "seconds (default: no expiry)")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="serve every query uncached (same as "
                              "--cache-size 0)")
    p_serve.add_argument("--quantized", action="store_true",
                         help="score candidates through the layout's int8 "
                              "sidecar and rerank the shortlist exactly "
                              "(rankings identical to fp; requires a "
                              "layout built with `index build --quantize` "
                              "or retrofitted with `index quantize`)")
    p_serve.add_argument("--overfetch", type=int, default=None,
                         help="with --quantized: shortlist "
                              "max(k*overfetch, k+margin) candidates for "
                              "exact rerank (default 4)")
    p_serve.add_argument("--margin", type=int, default=None,
                         help="with --quantized: additive shortlist slack "
                              "(default 32; 0 allowed)")
    p_serve.set_defaults(func=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
