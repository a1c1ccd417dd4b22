"""High-level TabBiN API: build, pre-train, and query embeddings.

A :class:`TabBiNEmbedder` owns the tokenizer, type inference, and the
four pre-trained segment models (rows, columns, HMD, VMD — Section 3.3),
plus an optional caption encoder (the fine-tuned BioBERT of Figure 5a).
It produces the composite embeddings the paper evaluates:

- ``column_embedding``  — TabBiN-colcomp: attribute embedding from the
  HMD model ⊕ mean data-cell embedding from the column model (Fig. 5b).
- ``table_embedding``   — TabBiN-tblcomp1/2: row-model data mean ⊕ HMD
  mean ⊕ VMD mean (⊕ caption embedding for tblcomp2) (Fig. 5a).
- ``entity_embedding``  — column-model encoding of an entity string
  (Section 4.3 uses the TabBiN-column model for EC).
"""

from __future__ import annotations

import numpy as np

from ..tables.table import Table
from ..text.tokenizer import WordPieceTokenizer
from ..text.types import TypeInference
from .config import SEGMENTS, TabBiNConfig
from .model import TabBiNModel
from .pretrain import PretrainStats, TabBiNPretrainer
from .serialize import TabBiNSerializer
from ..nn import load_checkpoint, save_checkpoint


def corpus_texts(corpus: list[Table]) -> list[str]:
    """All strings in a corpus (cells, metadata, captions) for tokenizer
    training."""
    texts: list[str] = []
    for table in corpus:
        texts.append(table.caption)
        texts.extend(l.label for l in table.hmd_labels())
        texts.extend(l.label for l in table.vmd_labels())
        for cell in table.all_cells():
            if cell.has_nested_table:
                texts.extend(corpus_texts([cell.nested_table]))
            else:
                texts.append(cell.text)
    return texts


class TabBiNEmbedder:
    """Pre-trained TabBiN models behind one embedding interface."""

    def __init__(self, tokenizer: WordPieceTokenizer,
                 type_inference: TypeInference,
                 config: TabBiNConfig,
                 models: dict[str, TabBiNModel],
                 caption_encoder=None, store=None):
        missing = set(SEGMENTS) - set(models)
        if missing:
            raise ValueError(f"missing segment models: {sorted(missing)}")
        self.tokenizer = tokenizer
        self.types = type_inference
        self.config = config
        self.models = models
        self.caption_encoder = caption_encoder
        self.serializer = TabBiNSerializer(tokenizer, type_inference, config)
        if store is None:
            from ..index.store import EmbeddingStore

            store = EmbeddingStore(self.serializer, self.models)
        self.store = store

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, corpus: list[Table], config: TabBiNConfig | None = None,
              steps: int = 150, vocab_size: int = 1500, seed: int = 0,
              type_inference: TypeInference | None = None,
              caption_encoder=None) -> tuple["TabBiNEmbedder", dict[str, PretrainStats]]:
        """Train a tokenizer and pre-train the four segment models.

        ``steps`` is per segment model (the paper uses 50,000 at
        H = 768; the default here is sized for CPU runs — the loop and
        objectives are identical).
        """
        config = config or TabBiNConfig.small()
        tokenizer = WordPieceTokenizer.train(corpus_texts(corpus), vocab_size=vocab_size)
        config = config.with_vocab(len(tokenizer.vocab))
        types = type_inference or TypeInference()
        serializer = TabBiNSerializer(tokenizer, types, config)

        rng = np.random.default_rng(seed)
        models: dict[str, TabBiNModel] = {}
        stats: dict[str, PretrainStats] = {}
        for segment in SEGMENTS:
            sequences = []
            if steps > 0:   # only pre-training reads the serialized corpus
                for table in corpus:
                    sequences.extend(serializer.serialize(table, segment))
            model = TabBiNModel(config, pad_id=tokenizer.vocab.pad_id,
                                rng=np.random.default_rng(rng.integers(1 << 31)))
            if sequences:
                trainer = TabBiNPretrainer(model, tokenizer.vocab, config,
                                           seed=int(rng.integers(1 << 31)))
                stats[segment] = trainer.train(sequences, steps=steps)
            else:
                stats[segment] = PretrainStats()
            model.eval()
            models[segment] = model
        embedder = cls(tokenizer, types, config, models,
                       caption_encoder=caption_encoder)
        return embedder, stats

    # ------------------------------------------------------------------
    # Pooled segment vectors (cached per table *content*, not identity —
    # an id(table) key could alias a GC'd table's reused id)
    # ------------------------------------------------------------------
    def _pooled(self, table: Table, segment: str) -> list[tuple]:
        """(CellRef, vector) pairs for a table under one segment model."""
        return self.store.pooled(table, segment)

    def precompute(self, corpus: list[Table],
                   batch_size: int | None = None,
                   workers: int | None = None) -> int:
        """Batch-encode a whole corpus through all four segment models.

        Sequences are grouped across tables into fixed-size padded
        batches (see :class:`~repro.index.store.EmbeddingStore`), which
        is substantially faster than the per-table lazy path when
        embedding many tables.  ``workers=N`` scatters those batches
        across a process pool with results identical to the serial path.
        Returns the number of newly encoded (table, segment) entries.
        """
        return self.store.encode_corpus(corpus, batch_size=batch_size,
                                        workers=workers)

    def fingerprint(self) -> str:
        """Content hash of everything that determines this embedder's
        vector space: vocabulary, config, and all segment-model weights.

        Two embedders with equal fingerprints produce identical
        embeddings for any table, so indexes stamped with it (see
        :attr:`~repro.index.index.VectorIndex.model_id`) can refuse to
        merge vectors from a different checkpoint.

        Computed once and memoized: embedders are inference-frozen after
        ``build``/``load`` (at paper scale, hashing every weight per
        ``TableIndex.build`` *and* ``ColumnIndex.build`` would be two
        full redundant passes over the parameters).
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is not None:
            return cached
        import hashlib

        digest = hashlib.blake2b(digest_size=16)
        digest.update("\x00".join(self.tokenizer.vocab).encode("utf-8"))
        digest.update(repr(self.config).encode("utf-8"))
        for segment in sorted(self.models):
            digest.update(segment.encode("utf-8"))
            state = self.models[segment].state_dict()
            for name in sorted(state):
                digest.update(name.encode("utf-8"))
                digest.update(np.ascontiguousarray(state[name]).tobytes())
        self._fingerprint = digest.hexdigest()
        return self._fingerprint

    @property
    def hidden(self) -> int:
        return self.config.hidden

    # ------------------------------------------------------------------
    # Embeddings
    # ------------------------------------------------------------------
    def column_data_embedding(self, table: Table, j: int) -> np.ndarray:
        """Mean data-cell vector of column ``j`` (TabBiN-column model)."""
        vectors = [v for ref, v in self._pooled(table, "column")
                   if ref.kind == "data" and ref.col == j]
        return _mean(vectors, self.hidden)

    def attribute_embedding(self, table: Table, j: int) -> np.ndarray:
        """Vector of column ``j``'s deepest HMD label (TabBiN-HMD model)."""
        candidates = [
            (ref, v) for ref, v in self._pooled(table, "hmd")
            if ref.span[0] <= j < ref.span[1]
        ]
        if not candidates:
            return np.zeros(self.hidden)
        deepest = max(ref.row for ref, _ in candidates)
        vectors = [v for ref, v in candidates if ref.row == deepest]
        return _mean(vectors, self.hidden)

    def column_embedding(self, table: Table, j: int,
                         composite: bool = True) -> np.ndarray:
        """TabBiN-colcomp (Figure 5b): E_cj ⊕ mean(E_d) — or just the
        data part with ``composite=False`` (the Table 10 baseline)."""
        data = self.column_data_embedding(table, j)
        if not composite:
            return data
        return np.concatenate([self.attribute_embedding(table, j), data])

    def segment_mean(self, table: Table, segment: str) -> np.ndarray:
        """Mean vector over all refs of a segment (rows/HMD/VMD)."""
        vectors = [v for _ref, v in self._pooled(table, segment)]
        return _mean(vectors, self.hidden)

    def caption_embedding(self, caption: str) -> np.ndarray:
        """Caption vector from the fine-tuned text encoder when present,
        else from the TabBiN row model."""
        if self.caption_encoder is not None:
            return self.caption_encoder.embed_text(caption)
        return self.entity_embedding(caption, segment="row")

    def table_embedding(self, table: Table,
                        variant: str = "tblcomp2") -> np.ndarray:
        """Composite table vector (Figure 5a, Section 4.5).

        Variants: ``row`` (data mean only), ``tblcomp1`` (row ⊕ HMD ⊕
        VMD), ``tblcomp2`` (tblcomp1 ⊕ caption embedding).
        """
        row = self.segment_mean(table, "row")
        if variant == "row":
            return row
        hmd = self.segment_mean(table, "hmd")
        vmd = self.segment_mean(table, "vmd")
        parts = [row, hmd, vmd]
        if variant == "tblcomp1":
            return np.concatenate(parts)
        if variant == "tblcomp2":
            parts.append(self.caption_embedding(table.caption))
            return np.concatenate(parts)
        raise ValueError(f"unknown table embedding variant: {variant!r}")

    def entity_embedding(self, text: str, segment: str = "column") -> np.ndarray:
        """Vector for a standalone entity string (Section 4.3)."""
        sequence = self.serializer.serialize_text(text, segment=segment)
        pooled = self.models[segment].encode_pooled([sequence])[0]
        if not pooled:
            return np.zeros(self.hidden)
        return next(iter(pooled.values()))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory) -> None:
        from pathlib import Path

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.tokenizer.vocab.save(directory / "vocab.json")
        for segment, model in self.models.items():
            save_checkpoint(model, directory / f"{segment}.npz",
                            meta={"segment": segment,
                                  "hidden": self.config.hidden})

    @classmethod
    def load(cls, directory, config: TabBiNConfig,
             type_inference: TypeInference | None = None) -> "TabBiNEmbedder":
        from pathlib import Path

        from ..text.vocab import Vocabulary

        directory = Path(directory)
        vocab = Vocabulary.load(directory / "vocab.json")
        tokenizer = WordPieceTokenizer(vocab)
        config = config.with_vocab(len(vocab))
        models: dict[str, TabBiNModel] = {}
        for segment in SEGMENTS:
            model = TabBiNModel(config, pad_id=vocab.pad_id)
            load_checkpoint(model, directory / f"{segment}.npz")
            model.eval()
            models[segment] = model
        return cls(tokenizer, type_inference or TypeInference(), config, models)


def _mean(vectors: list[np.ndarray], dim: int) -> np.ndarray:
    if not vectors:
        return np.zeros(dim)
    return np.mean(vectors, axis=0)
