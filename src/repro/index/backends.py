"""Pluggable index storage backends and the ``open_index`` facade.

Two on-disk layouts, one entry point:

- **Single file** (:class:`SingleFileBackend`) — the versioned ``.npz``
  :meth:`VectorIndex.save` writes.  Fully backward compatible: v1 files
  (pre-lifecycle, no ``format_version``/tombstones) and v2 files load
  unchanged.
- **Sharded directory** (:class:`ShardedDirBackend`) — a directory
  holding ``MANIFEST.json`` plus ``shard-0000.npz``, ``shard-0001.npz``,
  ... where every shard is itself a normal single-file index.  The
  manifest records the shared :class:`~repro.index.spec.IndexSpec`, the
  shard count, and per-shard entry/tombstone counts::

      {
        "manifest_version": 1,
        "spec": {"kind": ..., "dim": ..., "n_planes": ..., "n_bands": ...,
                 "seed": ..., "model_id": ..., "corpus": {...},
                 ...kind-specific extras (variant / composite)},
        "n_shards": N,
        "shards": [{"file": "shard-0000.npz", "entries": n,
                    "tombstones": t}, ...]
      }

:func:`open_index` sniffs which layout a path is (directory with a
manifest vs. ``.npz`` file, including the appended-suffix fallback) and
returns the right object — a :class:`~repro.index.index.VectorIndex`
subclass or a :class:`~repro.index.sharded.ShardedIndex`, both
:class:`~repro.index.index.LocalIndex` and so one query/lifecycle
surface.  :func:`read_index_spec` sniffs the same way and asks the same
backend for its spec without reading vectors.  Each check both entry
points run is written once — the manifest in :func:`_read_manifest`, a
file's format version, spec and kind in
``repro.index.index._read_payload`` — so the peek refuses what the open
would refuse first, with the same message.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

from .index import FORMAT_VERSION, VectorIndex, _read_payload, _resolve_saved_path
from .sharded import ShardedIndex
from .spec import IndexSpec

#: File that marks a directory as a sharded index layout.
MANIFEST_NAME = "MANIFEST.json"

#: Version stamp of the manifest schema.  Newer manifests are rejected
#: with a clear error instead of being silently mis-read.
MANIFEST_VERSION = 1

#: Shard filename pattern (``shard-0000.npz``, ...).
SHARD_TEMPLATE = "shard-{:04d}.npz"


class SingleFileBackend:
    """Today's versioned ``.npz`` layout (v1 and v2 files)."""

    def handles(self, path: Path) -> bool:
        return (path.is_file()
                or path.with_name(path.name + ".npz").is_file())

    def load(self, path: Path, mmap: bool = False) -> VectorIndex:
        return VectorIndex.load(path, mmap=mmap)

    def read_spec(self, path: Path) -> tuple[IndexSpec, int]:
        """``(spec, format_version)`` from the payload alone."""
        path = _resolve_saved_path(path)
        with np.load(path) as archive:
            _payload, spec, version = _read_payload(archive, path)
        return spec, version

    def save(self, index: VectorIndex, path: Path) -> Path:
        return index.save(path)


def _read_manifest(path: Path) -> tuple[IndexSpec, list[dict]]:
    """Parse and check a sharded layout's manifest: ``(spec, shard
    entries)``.  The one reader behind :meth:`ShardedDirBackend.load`
    and :func:`read_index_spec`, so a layout ``catalog add`` accepts is
    one ``open_index`` opens.  Checks the manifest version, structure,
    ``n_shards`` and spec fields, and that every listed shard file
    exists (a stat; no shard is read)."""
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    version = manifest.get("manifest_version", 1)
    if version > MANIFEST_VERSION:
        raise ValueError(f"{path} uses manifest v{version}; this build "
                         f"reads up to v{MANIFEST_VERSION}")
    entries = manifest.get("shards")
    spec_params = manifest.get("spec")
    if (not isinstance(entries, list) or not isinstance(spec_params, dict)
            or not all(isinstance(entry, dict) and "file" in entry
                       for entry in entries)):
        # A JSON-parseable manifest missing its required structure must
        # still be one clear ValueError, not a KeyError traceback
        # escaping open_index.
        raise ValueError(
            f"{path / MANIFEST_NAME} lacks the required 'spec'/'shards' "
            f"structure — the layout is inconsistent (partial write or "
            f"hand edit?)")
    declared = manifest.get("n_shards", len(entries))
    if declared != len(entries):
        raise ValueError(
            f"{path / MANIFEST_NAME} declares n_shards={declared} but "
            f"lists {len(entries)} shard files — the layout is "
            f"inconsistent (partial write or hand edit?)")
    try:
        spec = IndexSpec.from_params(spec_params)
    except KeyError as error:
        raise ValueError(
            f"{path / MANIFEST_NAME} spec lacks required field "
            f"{error} — the layout is inconsistent (partial write or "
            f"hand edit?)") from error
    for entry in entries:
        if not (path / entry["file"]).is_file():
            # ValueError, not FileNotFoundError: the layout *is* here,
            # it just disagrees with its manifest — callers reserve
            # FileNotFoundError for "no index at this path" (the CLI
            # turns that into a "run index build" hint, which would be
            # misleading for a broken layout).
            raise ValueError(
                f"{path} is missing shard file {entry['file']!r} listed "
                f"in {MANIFEST_NAME} — the layout is inconsistent "
                f"(partial write or deletion?)")
    return spec, entries


class ShardedDirBackend:
    """Directory layout: ``MANIFEST.json`` + one ``.npz`` per shard."""

    def handles(self, path: Path) -> bool:
        return (path / MANIFEST_NAME).is_file()

    def load(self, path: Path, mmap: bool = False) -> ShardedIndex:
        path = Path(path)
        spec, entries = _read_manifest(path)
        # Validate every shard file *before* assembling the index, so a
        # broken layout surfaces as one clear error at open time — never
        # as a half-merged query result later.
        shards = []
        for entry in entries:
            shard_path = path / entry["file"]
            if not zipfile.is_zipfile(shard_path):
                # Truncation loses the zip end-of-central-directory
                # record; garbage never had one.  np.load's own errors
                # here are misleading ("pickled data"), so sniff first.
                raise ValueError(f"shard file {shard_path} is corrupt or "
                                 f"truncated (not a valid .npz archive)")
            try:
                shard = VectorIndex.load(shard_path, mmap=mmap)
            except ValueError:
                # Format-version and kind rejections are already clear.
                raise
            except Exception as error:
                # A well-formed zip that still fails to load (missing
                # arrays, mangled payload) raises zipfile / KeyError /
                # json flavours; normalize to one message.
                raise ValueError(f"shard file {shard_path} is corrupt or "
                                 f"truncated: {error}") from error
            if shard.kind != spec.kind or shard.dim != spec.dim:
                # The same rejection ShardedIndex.__init__ would raise,
                # surfaced before the entry-count integrity check: a
                # smuggled-in foreign shard should read as a vector-space
                # mismatch, not as a corrupt layout.
                raise ValueError(
                    f"shard file {shard_path} is ({shard.kind!r}, dim "
                    f"{shard.dim}), spec says ({spec.kind!r}, dim "
                    f"{spec.dim})")
            recorded = entry.get("entries")
            if recorded is not None and len(shard) != recorded:
                raise ValueError(
                    f"shard file {shard_path} holds {len(shard)} live "
                    f"entries but {MANIFEST_NAME} records {recorded} — the "
                    f"layout is inconsistent (partial write or hand edit?)")
            shards.append(shard)
        # ShardedIndex.__init__ re-validates kind/dim per shard, so a
        # hand-edited manifest cannot smuggle mismatched shards in.
        return ShardedIndex(spec, shards)

    def read_spec(self, path: Path) -> tuple[IndexSpec, int]:
        """``(spec, format_version)`` from the manifest, the version from
        the first shard's payload (shards are written together, so one
        member answers for the layout)."""
        spec, entries = _read_manifest(path)
        if not entries:
            return spec, FORMAT_VERSION
        return spec, SingleFileBackend().read_spec(path / entries[0]["file"])[1]

    def save(self, index: ShardedIndex, path: Path) -> Path:
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        entries = []
        for position, shard in enumerate(index.shards):
            filename = SHARD_TEMPLATE.format(position)
            shard.save(path / filename)
            entries.append({"file": filename, "entries": len(shard),
                            "tombstones": shard.n_tombstones,
                            "quantized": shard.quantized})
        # Rebalancing to fewer shards must not leave orphan files that a
        # later manifest rewrite could resurrect.
        kept = {entry["file"] for entry in entries}
        for stale in path.glob("shard-*.npz"):
            if stale.name not in kept:
                stale.unlink()
        manifest = {"manifest_version": MANIFEST_VERSION,
                    "spec": index.spec.to_params(),
                    "n_shards": len(index.shards), "shards": entries}
        (path / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2)
                                          + "\n")
        return path


def _backend(path: Path):
    """The backend whose layout ``path`` is.  The manifest is an
    unambiguous marker, so the sharded backend goes first; the
    single-file backend then claims any existing file (or
    appended-``.npz`` sibling)."""
    for backend in (ShardedDirBackend(), SingleFileBackend()):
        if backend.handles(path):
            return backend
    if path.is_dir():
        raise FileNotFoundError(
            f"{path} is a directory without {MANIFEST_NAME} — not a "
            f"sharded index layout")
    raise FileNotFoundError(f"no index file at {path}")


def open_index(path: str | Path, mmap: bool = False,
               quantized: bool = False) -> VectorIndex | ShardedIndex:
    """Open a saved index of either layout.

    Returns a :class:`VectorIndex` subclass for single ``.npz`` files
    (legacy v1 and v2 formats included) or a :class:`ShardedIndex` for
    manifest directories.  Both expose the same query/lifecycle surface
    (``query_vector``, ``query_many``, ``remove``, ``compact``,
    ``merge``, ``save``), so callers need not care which layout they
    got.  ``FileNotFoundError`` means nothing is there; ``ValueError``
    a broken, too-new or unknown-kind layout.

    ``mmap=True`` memory-maps every vector matrix read-only instead of
    reading it eagerly — the cold-open mode the retrieval server uses:
    huge sharded layouts open without paying a full read, queries page
    in only the candidate rows they score, and results are bit-identical
    to an eager load (property-tested).  The mapped arrays are
    write-protected, so an accidental writeback raises instead of
    corrupting the file.  When the layout carries int8 sidecar members
    they are mapped (or read) alongside the fp matrix automatically.

    ``quantized=True`` additionally opts queries into the int8
    prefilter tier (``enable_quantized``); a layout without sidecar
    members raises ``ValueError`` naming the retrofit command.
    Rankings are bit-identical either way — the flag trades rerank
    cost for GEMM and resident-memory savings, not result quality.
    """
    path = Path(path)
    index = _backend(path).load(path, mmap=mmap)
    if quantized:
        index.enable_quantized()
    return index


def read_index_spec(path: str | Path) -> tuple[IndexSpec, int]:
    """Peek at a saved index's ``(spec, format_version)`` without
    loading any vector data — the cheap inspection path ``catalog
    add``/``catalog list`` and the pre-fork parent use to verify an
    entry's kind and checkpoint stamp.  Same layouts, same checks and
    same error contract as :func:`open_index`."""
    path = Path(path)
    return _backend(path).read_spec(path)


def save_index(index: VectorIndex | ShardedIndex, path: str | Path) -> Path:
    """Persist ``index`` in its natural layout (single file for
    ``VectorIndex``, manifest directory for ``ShardedIndex``)."""
    backend = (ShardedDirBackend() if isinstance(index, ShardedIndex)
               else SingleFileBackend())
    return backend.save(index, Path(path))
