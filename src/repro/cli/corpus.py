"""``stats``, ``train``, ``evaluate`` and ``encode``: the paper's
pipeline over one generated corpus."""

from __future__ import annotations

import argparse

from ..core import TabBiNConfig, TabBiNEmbedder
from ..datasets import PROFILES, corpus_stats, load_dataset
from ..eval import (
    ResultsTable,
    collect_entities,
    column_clustering,
    entity_clustering,
    table_clustering,
)
from . import CliError, _validate_counts


def add_corpus_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dataset", choices=sorted(PROFILES),
                        help="which generated corpus to use")
    parser.add_argument("--n-tables", type=int, default=24,
                        help="corpus size (default 24)")
    parser.add_argument("--seed", type=int, default=0)


flags_stats = add_corpus_flags


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


def flags_train(parser: argparse.ArgumentParser) -> None:
    add_corpus_flags(parser)
    parser.add_argument("--steps", type=int, default=80)
    parser.add_argument("--vocab-size", type=int, default=700)
    parser.add_argument("--out", default=None, help="checkpoint directory")


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


def flags_evaluate(parser: argparse.ArgumentParser) -> None:
    add_corpus_flags(parser)
    parser.add_argument("--steps", type=int, default=80)
    parser.add_argument("--vocab-size", type=int, default=700)
    parser.add_argument("--model", default=None, help="checkpoint directory")
    parser.add_argument("--k", type=int, default=20)
    parser.add_argument("--max-queries", type=int, default=40)


def cmd_evaluate(args: argparse.Namespace) -> int:
    # Validate before the (expensive) train/load step.
    _validate_counts(args, "k", "max_queries")
    tables = load_dataset(args.dataset, n_tables=args.n_tables, seed=args.seed)
    embedder = load_or_train(args, tables)
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


def flags_encode(parser: argparse.ArgumentParser) -> None:
    add_corpus_flags(parser)
    parser.add_argument("--table", type=int, default=0)
    parser.add_argument("--segment", default="row",
                        choices=("row", "column", "hmd", "vmd"))
    parser.add_argument("--limit", type=int, default=40)
    parser.add_argument("--vocab-size", type=int, default=500)


def cmd_encode(args: argparse.Namespace) -> int:
    from ..core import TabBiNSerializer, corpus_texts
    from ..text import TYPE_NAMES, TypeInference, WordPieceTokenizer

    tables = load_dataset(args.dataset, n_tables=args.n_tables, seed=args.seed)
    if not 0 <= args.table < len(tables):
        raise CliError(f"--table must be in [0, {len(tables)})")
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


def load_or_train(args: argparse.Namespace, tables) -> TabBiNEmbedder:
    if args.model:
        print(f"Loading checkpoint from {args.model} ...")
        return TabBiNEmbedder.load(args.model, TabBiNConfig.small())
    print(f"No checkpoint given; pre-training {args.steps} steps ...")
    embedder, _ = TabBiNEmbedder.build(
        tables, config=TabBiNConfig.small(), steps=args.steps,
        vocab_size=args.vocab_size, seed=args.seed,
    )
    return embedder

