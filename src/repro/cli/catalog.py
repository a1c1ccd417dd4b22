"""``catalog init|add|list``: the named indexes one ``serve`` routes
between."""

from __future__ import annotations

import argparse
from pathlib import Path

from ..catalog import CATALOG_NAME, Catalog, CatalogEntry
from ..index import read_index_spec
from . import CliError, refusing


def _load_catalog(directory: str) -> Catalog:
    with refusing(f"no catalog at {directory} (run `catalog init "
                  f"{directory}` first)"):
        return Catalog.load(directory)


def flags_catalog_init(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dir", help="catalog directory (created if needed)")


def cmd_catalog_init(args: argparse.Namespace) -> int:
    """``catalog init``: start an empty ``catalog.json`` in a directory."""
    directory = Path(args.dir)
    manifest = directory / CATALOG_NAME
    if manifest.exists():
        raise CliError(f"{manifest} already exists; use `catalog add` to "
                       f"register indexes in it")
    written = Catalog(root=directory).save()
    print(f"Initialised empty catalog at {written}; register indexes with "
          f"`catalog add {args.dir} --name NAME --path PATH`")
    return 0


def flags_catalog_add(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dir", help="catalog directory (from `catalog init`)")
    parser.add_argument("--name", required=True,
                        help="name queries route to ({\"index\": NAME})")
    parser.add_argument("--path", required=True,
                        help="saved index (.npz file or sharded dir); "
                             "relative paths resolve against the catalog "
                             "directory, keeping it relocatable")
    parser.add_argument("--default", action="store_true",
                        help="make this entry the default route (requests "
                             "without an \"index\" field)")
    parser.add_argument("--replace", action="store_true",
                        help="allow swapping an existing entry in place, "
                             "bumping its manifest generation so cached "
                             "results against the old layout are detectably "
                             "stale")


def cmd_catalog_add(args: argparse.Namespace) -> int:
    """``catalog add``: register one saved index under a name.

    The entry's ``kind`` and ``model_id`` are read from the layout
    itself (:func:`~repro.index.read_index_spec` — manifest/payload
    only, no vector data), so the manifest can never disagree with the
    index it points at the moment it is written."""
    catalog = _load_catalog(args.dir)
    entry = CatalogEntry(name=args.name, path=args.path, kind="vector")
    try:
        spec, format_version = read_index_spec(catalog.resolve_path(entry))
    except FileNotFoundError as error:
        raise CliError(f"cannot add {args.name!r}: {error} (paths resolve "
                       f"against the catalog directory unless absolute)")
    except ValueError as error:
        raise CliError(f"cannot add {args.name!r}: {error}")
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
                raise CliError(f"{error} (use --replace to swap it in place "
                               f"and bump its generation)")
            raise CliError(str(error))
        verb = "Added"
    if args.default:
        catalog.set_default(args.name)
    catalog.save()
    marker = " (default)" if catalog.default_name == args.name else ""
    print(f"{verb} {args.name!r} -> {args.path} "
          f"({spec.describe()} format=v{format_version}) "
          f"[{len(catalog)} entries]{marker}")
    return 0


def flags_catalog_list(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dir", help="catalog directory")


def cmd_catalog_list(args: argparse.Namespace) -> int:
    """``catalog list``: every entry with its live on-disk spec.

    An entry whose layout no longer opens is *listed*, marked
    unreadable — a stale catalog should be visible, not a crash."""
    catalog = _load_catalog(args.dir)
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

