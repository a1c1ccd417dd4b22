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

Each command group lives in its own module — ``corpus`` (``stats`` to
``encode``), ``index``, ``catalog`` and ``serving`` (``serve``,
``serve-shard``, the pre-fork fleet) — holding the group's flags and
code; :func:`build_parser` names the commands only, and a module is
imported when one of its commands parses, so ``stats`` never loads the
serving stack.  A command refuses by raising :class:`CliError`;
:func:`main` is the one place that prints it and exits 2.

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
from collections.abc import Sequence
from contextlib import contextmanager
from importlib import import_module


class CliError(Exception):
    """A refused command: :func:`main` prints the message to stderr and
    exits 2.  Anything else a command raises is a bug and keeps its
    traceback."""


@contextmanager
def refusing(missing: str | None = None, prefix: str = ""):
    """Turn an open/load failure inside the block into a
    :class:`CliError`: ``missing`` replaces a ``FileNotFoundError``'s
    text when given; otherwise the message is ``prefix`` + the error."""
    try:
        yield
    except FileNotFoundError as error:
        raise CliError(missing or f"{prefix}{error}") from error
    except ValueError as error:
        raise CliError(f"{prefix}{error}") from error


#: Count-like flags share one rule, at least 1; each message is
#: word-for-word what the historical per-command copies printed (tests
#: pin them), so no subcommand's wording can drift from the others.
#: ``serve``'s own knobs are checked by :class:`~repro.serve.ServeConfig`
#: instead.
_COUNT_FLAG_MESSAGES = {
    "workers": "--workers must be positive",
    "jobs": "--jobs must be positive",
    "shards": "--shards must be at least 1",
    "k": "-k/--k must be at least 1",
    "chunk": "--chunk must be at least 1",
    "batch_size": "--batch-size must be at least 1",
    "max_queries": "--max-queries must be at least 1",
}


def _validate_counts(args: argparse.Namespace, *names: str,
                     also: Sequence[str] = ()) -> None:
    """Shared validation for the count-like flags (``--jobs``,
    ``--workers``, ``-k``, ...): each must be at least 1 when given
    (``None`` means the flag was omitted and is fine).  Raises one
    :class:`CliError` carrying a line per offending flag, plus the
    ``also`` lines a caller refused on its own, so every bad flag is
    reported in one pass (tests/test_cli_validation.py)."""
    lines = [_COUNT_FLAG_MESSAGES[name] for name in names
             if getattr(args, name, None) is not None
             and getattr(args, name) < 1]
    lines += also
    if lines:
        raise CliError("\n".join(lines))


class _LazyParser(argparse.ArgumentParser):
    """A parser filled in the first time it parses (``--help``
    included) from its ``command``, a ``(module, key)`` pair: the sibling
    module's ``flags_<key>(parser)`` adds the flags and
    ``cmd_<key>(args)`` runs the command (``index build`` is
    ``index.cmd_index_build``).  So a command imports only its own
    group's module."""

    command: tuple[str, str] | None = None

    def parse_known_args(self, args=None, namespace=None):
        if self.command is not None:
            module, key = self.command
            self.command = None
            module = import_module(f"{__name__}.{module}")
            getattr(module, f"flags_{key}")(self)
            self.set_defaults(func=getattr(module, f"cmd_{key}"))
        return super().parse_known_args(args, namespace)


#: Every command as ``(group, name, module, help)``: ``group`` is the
#: parent command or ``None``, ``module`` the sibling module that holds
#: its flags and code (``None`` for a group).
_COMMANDS = (
    (None, "stats", "corpus", "corpus statistics"),
    (None, "train", "corpus", "pre-train TabBiN"),
    (None, "evaluate", "corpus", "run CC/TC/EC"),
    (None, "encode", "corpus", "show token encoding"),
    (None, "index", None, "corpus indexing"),
    ("index", "build", "index",
     "batch-encode a corpus into table + column indexes"),
    ("index", "query", "index", "top-k neighbours from a built index"),
    ("index", "rm", "index", "tombstone entries of a saved index by key"),
    ("index", "compact", "index",
     "rebuild a saved index without its tombstones"),
    ("index", "quantize", "index",
     "retrofit an int8 sidecar onto a saved index (in place; idempotent "
     "refresh if already quantized)"),
    ("index", "merge", "index", "merge saved indexes (fingerprint-deduped)"),
    (None, "catalog", None,
     "manage a catalog of named indexes for multi-index serving"),
    ("catalog", "init", "catalog", "start an empty catalog.json"),
    ("catalog", "add", "catalog", "register a saved index under a name"),
    ("catalog", "list", "catalog",
     "show every entry with its live on-disk spec"),
    (None, "serve-shard", "serving",
     "serve one cluster shard's partial-query surface over HTTP"),
    (None, "serve", "serving",
     "serve a saved index, a catalog of them, or a cluster of shard "
     "servers over HTTP (micro-batched, memory-mapped)"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _LazyParser(
        prog="repro.cli",
        description="TabBiN reproduction command-line interface",
    )
    commands = {None: parser.add_subparsers(dest="command", required=True)}
    for group, name, module, help in _COMMANDS:
        if module is None:
            commands[name] = commands[group].add_parser(
                name, help=help).add_subparsers(dest=f"{name}_command",
                                                required=True)
            continue
        key = "_".join(filter(None, (group, name))).replace("-", "_")
        commands[group].add_parser(name, help=help).command = (module, key)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as error:
        print(error, file=sys.stderr)
        return 2
