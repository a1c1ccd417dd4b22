"""``index build|query|rm|compact|quantize|merge``: build a corpus's
table and column indexes and manage saved layouts."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..core import TabBiNConfig, TabBiNEmbedder
from ..datasets import load_dataset
from ..eval import ResultsTable
from ..index import (
    MANIFEST_NAME,
    ColumnIndex,
    ShardedIndex,
    TableIndex,
    open_index,
    save_index,
)
from . import CliError, _validate_counts, refusing
from .corpus import add_corpus_flags, load_or_train


def flags_index_build(parser: argparse.ArgumentParser) -> None:
    add_corpus_flags(parser)
    parser.add_argument("--out", required=True, help="index directory")
    parser.add_argument("--model", default=None, help="checkpoint directory")
    parser.add_argument("--steps", type=int, default=80)
    parser.add_argument("--vocab-size", type=int, default=700)
    parser.add_argument("--variant", default="tblcomp1",
                        choices=("row", "tblcomp1"),
                        help="table embedding composition")
    parser.add_argument("--batch-size", type=int, default=32,
                        help="sequences per encoder forward")
    parser.add_argument("--workers", type=int, default=None,
                        help="scatter encoder batches across N processes "
                             "(results identical to serial; default serial)")
    parser.add_argument("--shards", type=int, default=None,
                        help="emit a sharded directory layout with N shards "
                             "(MANIFEST.json + shard-XXXX.npz) instead of "
                             "one .npz per index")
    parser.add_argument("--quantize", action="store_true",
                        help="also write a per-vector int8 sidecar "
                             "alongside the fp vectors; `serve "
                             "--quantized` then scores candidates in "
                             "int8 and reranks the shortlist exactly "
                             "(rankings identical)")


def cmd_index_build(args: argparse.Namespace) -> int:
    # Validate before the (expensive) train/load step.
    _validate_counts(args, "workers", "shards", "batch_size")
    tables = load_dataset(args.dataset, n_tables=args.n_tables, seed=args.seed)
    if not tables:
        raise CliError("cannot build an index over an empty corpus "
                       "(--n-tables must be positive)")
    embedder = load_or_train(args, tables)
    out = Path(args.out)
    embedder.save(out / "model")
    mode = f"{args.workers} workers" if args.workers and args.workers > 1 \
        else "serial"
    print(f"Batch-encoding {len(tables)} tables "
          f"(batch size {args.batch_size}, {mode}) ...")
    corpus_id = {"dataset": args.dataset, "n_tables": args.n_tables,
                 "seed": args.seed}
    sharded = args.shards is not None
    options = {"seed": args.seed, "batch_size": args.batch_size,
               "workers": args.workers}
    if sharded:
        table_index = TableIndex.build_sharded(
            embedder, tables, shards=args.shards, variant=args.variant,
            **options)
        column_index = ColumnIndex.build_sharded(
            embedder, tables, shards=args.shards, **options)
        table_path, column_path = out / "tables", out / "columns"
    else:
        table_index = TableIndex.build(embedder, tables,
                                       variant=args.variant, **options)
        column_index = ColumnIndex.build(embedder, tables, **options)
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
        _remove_stale_layout(out / name, sharded=sharded)
    save_index(table_index, table_path)
    save_index(column_index, column_path)
    stats = embedder.store.stats
    summary = ResultsTable(f"Index built: {args.dataset}", columns=["value"])
    summary.add("tables indexed", "value", len(table_index))
    summary.add("columns indexed", "value", len(column_index))
    if sharded:
        summary.add("shards", "value", args.shards)
        summary.add("shard sizes (tables)", "value",
                    "/".join(str(n) for n in table_index.shard_sizes()))
    if args.quantize:
        summary.add("quantized", "value", "int8 sidecar (exact rerank)")
    summary.add("encoder batches", "value", stats.batches)
    summary.add("sequences encoded", "value", stats.sequences_encoded)
    summary.show()
    layout = "sharded" if sharded else "single-file"
    print(f"Saved model + {layout} indexes to {out}")
    return 0


def _load_query_batch(path):
    """Read a ``(Q, dim)`` query matrix (plus optional per-query exclude
    keys) from ``--batch FILE``: an ``.npz`` with a ``queries`` array,
    or JSONL where each line is a bare vector array or an object
    ``{"vector": [...], "exclude": "key"}``.  Every row passes the
    checks of the server's ``POST /query`` (``parse_query_payload``),
    so a file holds exactly the queries the wire accepts."""
    import json

    import numpy as np

    from ..serve.protocol import (
        ProtocolError,
        finite_matrix,
        parse_query_payload,
    )

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
        if queries.ndim != 2 or not len(queries):
            raise ValueError(f"{path}: queries must be a non-empty 2-D "
                             f"matrix, got shape {queries.shape}")
        try:
            return finite_matrix(queries), None
        except ProtocolError as error:
            raise ValueError(f"{path}: {error.message}") from None
    rows: list[np.ndarray] = []
    excludes: list[str | None] = []
    for lineno, raw in enumerate(path.read_bytes().splitlines(), 1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}:{lineno}: not valid UTF-8") from None
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as error:
            raise ValueError(f"{path}:{lineno}: not valid JSON: "
                             f"{error}") from None
        if not isinstance(record, dict):
            record = {"vector": record}
        vector = record.get("vector")
        # The first query sets the batch's width; the index's own dim
        # is checked once the whole matrix is read.
        width = rows[0].size if rows else (
            len(vector) if isinstance(vector, list) else 0)
        if isinstance(vector, list) and len(vector) != width:
            raise ValueError(f"{path}:{lineno}: vector has {len(vector)} "
                             f"dims, earlier queries have {width}")
        try:
            [row], _k, [exclude], _single = parse_query_payload(
                {"vector": vector, "exclude": record.get("exclude")}, width)
        except ProtocolError as error:
            raise ValueError(f"{path}:{lineno}: {error.message}") from None
        rows.append(row)
        excludes.append(exclude)
    if not rows:
        raise ValueError(f"{path} holds no queries")
    return np.stack(rows), excludes


def _open_built(index_dir: Path, kind: str, model: bool = False):
    """The ``kind`` index that ``index build --out index_dir`` wrote,
    with its checkpoint when ``model`` is set (``None`` otherwise)."""
    with refusing(f"no index at {index_dir} (run `index build ... --out "
                  f"{index_dir}` first)"):
        embedder = (TabBiNEmbedder.load(index_dir / "model",
                                        TabBiNConfig.small())
                    if model else None)
        # open_index sniffs the layout, so `tables` resolves to either
        # the sharded `tables/` directory or the single `tables.npz`.
        index = open_index(index_dir / f"{kind}s")
    if index.kind != kind:
        raise CliError(f"{index_dir} holds a {index.kind!r} index, "
                       f"expected {kind!r}")
    return embedder, index


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

    if args.column is not None:
        raise CliError("--batch and --column are mutually exclusive; pick "
                       "the index with --kind instead")
    with refusing():
        queries, excludes = _load_query_batch(args.batch)
    _, index = _open_built(Path(args.index), args.kind)
    if queries.shape[1] != index.dim:
        raise CliError(f"query batch has dim {queries.shape[1]}, index "
                       f"expects {index.dim}")
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


def flags_index_query(parser: argparse.ArgumentParser) -> None:
    add_corpus_flags(parser)
    parser.add_argument("--index", required=True, help="index directory "
                                                       "(from `index build`)")
    parser.add_argument("--table", type=int, default=0,
                        help="query table position in the corpus")
    parser.add_argument("--column", type=int, default=None,
                        help="query this column instead of the whole table")
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--batch", default=None, metavar="FILE",
                        help="run many queries from FILE (.npz with a "
                             "'queries' matrix, or JSONL vectors) and print "
                             "ranked results per query as JSON lines; the "
                             "corpus arguments are ignored")
    parser.add_argument("--kind", default="table",
                        choices=("table", "column"),
                        help="which index --batch queries target "
                             "(default: table)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="fan per-shard query work across N threads "
                             "(sharded layouts; results identical to "
                             "serial)")
    parser.add_argument("--chunk", type=int, default=64,
                        help="with --batch, run queries through "
                             "query_many this many at a time, streaming "
                             "each chunk's JSON lines as it completes "
                             "(default 64; rankings are unaffected)")


def cmd_index_query(args: argparse.Namespace) -> int:
    _validate_counts(args, "k", "jobs", "chunk")
    if args.batch is not None:
        return _run_batch_query(args)
    tables = load_dataset(args.dataset, n_tables=args.n_tables, seed=args.seed)
    if not 0 <= args.table < len(tables):
        raise CliError(f"--table must be in [0, {len(tables)})")
    table = tables[args.table]
    if args.column is not None and not 0 <= args.column < table.n_cols:
        raise CliError(f"--column must be in [0, {table.n_cols})")
    embedder, index = _open_built(
        Path(args.index), "column" if args.column is not None else "table",
        model=True)
    built_from = index.corpus
    asked = {"dataset": args.dataset, "n_tables": args.n_tables,
             "seed": args.seed}
    if built_from and built_from != asked:
        # Generated corpora are not prefix-stable, so a different
        # dataset/n-tables/seed names different tables entirely.
        raise CliError(f"index was built from {built_from}, not {asked}; "
                       f"rerun with matching corpus arguments (or rebuild)")
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

    path = Path(path)
    if sharded:
        if path.is_file():
            path.unlink()
        sibling = path.with_name(path.name + ".npz")
        if sibling.is_file():
            sibling.unlink()
    elif (path / MANIFEST_NAME).is_file():
        shutil.rmtree(path)


def flags_index_compact(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", help="saved index (.npz file or sharded "
                                     "dir)")


flags_index_quantize = flags_index_compact


def flags_index_rm(parser: argparse.ArgumentParser) -> None:
    flags_index_compact(parser)
    parser.add_argument("keys", nargs="+", metavar="KEY",
                        help="fingerprint keys to remove")
    parser.add_argument("--compact", action="store_true",
                        help="reclaim the tombstoned slots before saving")


def cmd_index_rm(args: argparse.Namespace) -> int:
    with refusing():
        index = open_index(args.path)
    keys = list(dict.fromkeys(args.keys))    # drop repeated CLI keys
    missing = [key for key in keys if key not in index]
    if missing:
        raise CliError(f"key(s) not in index: {', '.join(missing)}")
    for key in keys:
        index.remove(key)
    if args.compact:
        index.compact()
    index.save(args.path)
    print(f"Removed {len(keys)} of {len(index) + len(keys)} entries from "
          f"{args.path} ({len(index)} live, {index.n_tombstones} tombstoned)")
    return 0


def cmd_index_compact(args: argparse.Namespace) -> int:
    with refusing():
        index = open_index(args.path)
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
    with refusing():
        index = open_index(args.path, mmap=False)
    already = index.quantized
    count = index.quantize()
    index.save(args.path)
    verb = "Refreshed" if already else "Quantized"
    print(f"{verb} {args.path}: int8 sidecar over {count} vectors "
          f"({len(index)} live entries); serve with --quantized or open "
          f"with open_index(..., quantized=True)")
    return 0


def flags_index_merge(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("paths", nargs="+", metavar="PATH",
                        help="two or more saved indexes (.npz files or "
                             "sharded dirs, mixable)")
    parser.add_argument("--out", required=True,
                        help="output path (written in the first input's "
                             "layout)")


def cmd_index_merge(args: argparse.Namespace) -> int:
    if len(args.paths) < 2:
        raise CliError("index merge needs at least two input indexes")
    with refusing():
        merged = open_index(args.paths[0])
    total_added = 0
    for path in args.paths[1:]:
        with refusing():
            other = open_index(path)
        with refusing(prefix=f"cannot merge {path}: "):
            total_added += merged.merge(other)
    # Re-merging to the same --out with a different first-input layout
    # must replace the old artifact, not coexist with (and lose to) it.
    _remove_stale_layout(args.out, sharded=isinstance(merged, ShardedIndex))
    merged.save(args.out)
    print(f"Merged {len(args.paths)} indexes into {args.out}: "
          f"{len(merged)} entries ({total_added} added beyond the first "
          f"index; duplicates fingerprint-deduped)")
    return 0

