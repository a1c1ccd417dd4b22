"""The TUTA baseline: a tree-based structure-aware table transformer.

TUTA [80] is the paper's main structured SOTA comparator.  Architecture
reproduced here (the "explicit" variant the paper fine-tunes):

- one *joint* model over the whole table — metadata and data share a
  single sequence and a single context (TabBiN's segment separation is
  exactly what it lacks);
- tree-based positional embeddings: row, column, and header-tree depth;
- the magnitude/precision/first/last numeric features (TUTA introduced
  them; TabBiN adopts them);
- MLM pre-training over the joint sequence with full attention.

It has no unit/nesting features, no semantic type inference, no range or
gaussian semantics, and no bi-dimensional nested coordinates — the
components the ablations in Tables 12/13 attribute TabBiN's margin to.
"""

from __future__ import annotations

import numpy as np

from ..nn import (
    Adam,
    Dropout,
    Embedding,
    IGNORE_INDEX,
    LayerNorm,
    LinearWarmupSchedule,
    Module,
    Tensor,
    TransformerEncoder,
    clip_grad_norm,
    cross_entropy,
)
from ..core.model import MLMHead
from ..core.numeric_features import NULL_FEATURES, numeric_features
from ..tables.table import Table
from ..text.tokenizer import WordPieceTokenizer


class TutaModel(Module):
    """Joint table encoder with tree positional embeddings."""

    def __init__(self, vocab_size: int, hidden: int = 48, num_layers: int = 2,
                 num_heads: int = 4, intermediate: int = 192,
                 max_positions: int = 256, max_depth: int = 8,
                 numeric_bins: int = 11, dropout: float = 0.1,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if hidden % 4 != 0:
            raise ValueError("hidden must be divisible by 4 for numeric features")
        rng = rng or np.random.default_rng(0)
        self.hidden = hidden
        self.vocab_size = vocab_size
        self.tok = Embedding(vocab_size, hidden, rng=rng)
        quarter = hidden // 4
        self.num_mag = Embedding(numeric_bins, quarter, rng=rng)
        self.num_pre = Embedding(numeric_bins, quarter, rng=rng)
        self.num_fst = Embedding(numeric_bins, quarter, rng=rng)
        self.num_lst = Embedding(numeric_bins, quarter, rng=rng)
        self.row = Embedding(max_positions, hidden, rng=rng)
        self.col = Embedding(max_positions, hidden, rng=rng)
        self.depth = Embedding(max_depth, hidden, rng=rng)
        self.norm = LayerNorm(hidden)
        self.dropout = Dropout(dropout, rng=rng)
        self.encoder = TransformerEncoder(num_layers, hidden, num_heads,
                                          intermediate, dropout, rng=rng)
        self.mlm_head = MLMHead(hidden, vocab_size, rng=rng)
        self.max_positions = max_positions
        self.max_depth = max_depth

    def forward(self, token_ids, numeric, rows, cols, depths, valid) -> Tensor:
        from ..nn.tensor import concatenate

        e_num = concatenate([
            self.num_mag(numeric[..., 0]), self.num_pre(numeric[..., 1]),
            self.num_fst(numeric[..., 2]), self.num_lst(numeric[..., 3]),
        ], axis=-1)
        x = (self.tok(token_ids) + e_num + self.row(rows) + self.col(cols)
             + self.depth(depths))
        x = self.dropout(self.norm(x))
        mask = (valid[:, None, :] & valid[:, :, None]).astype(np.uint8)
        idx = np.arange(valid.shape[1])
        mask[:, idx, idx] = 1
        return self.encoder(x, mask)


class TutaEmbedder:
    """Public TUTA-like API mirroring :class:`TabBiNEmbedder`'s surface."""

    def __init__(self, tokenizer: WordPieceTokenizer, model: TutaModel,
                 max_seq_len: int = 128):
        self.tokenizer = tokenizer
        self.model = model
        self.max_seq_len = max_seq_len
        self._cache: dict[tuple[int, str], np.ndarray] = {}

    # ------------------------------------------------------------------
    # Serialization: one joint sequence per table
    # ------------------------------------------------------------------
    def serialize(self, table: Table) -> dict[str, np.ndarray]:
        """Whole-table token arrays with (row, col, depth) tree positions.

        Header labels come first (depth = their tree level), then data
        cells row-major (depth = deepest header level + 1).  Nested
        tables are flattened into their cell's text — TUTA has no nested
        coordinates.
        """
        vocab = self.tokenizer.vocab
        token_ids: list[int] = [vocab.cls_id]
        numeric: list[tuple] = [NULL_FEATURES]
        rows, cols, depths, cell_ids = [0], [0], [0], [-1]
        cell_counter = 0
        refs: list[tuple[str, int, int]] = []

        def emit(text: str, row: int, col: int, depth: int, kind: str):
            nonlocal cell_counter
            pieces = self.tokenizer.tokenize(text)
            if not pieces:
                return
            for piece in pieces[:16]:
                token_ids.append(vocab.id(piece))
                numeric.append(NULL_FEATURES)
                rows.append(min(row, self.model.max_positions - 1))
                cols.append(min(col, self.model.max_positions - 1))
                depths.append(min(depth, self.model.max_depth - 1))
                cell_ids.append(cell_counter)
            refs.append((kind, row, col))
            cell_counter += 1

        data_depth = max(table.hmd_tree.depth, 1)
        for label in table.hmd_labels():
            emit(label.label, label.level - 1, label.span[0], label.level, "hmd")
        for label in table.vmd_labels():
            emit(label.label, label.span[0], label.level - 1, label.level, "vmd")
        for i in range(table.n_rows):
            for j in range(table.n_cols):
                cell = table.data[i][j]
                text = cell.text
                if cell.has_nested_table:
                    nested = cell.nested_table
                    text = " ".join(
                        inner.text for inner in nested.all_cells()
                    )
                emit(text, i, j, data_depth, "data")
                # Attach numeric features to the [VAL] tokens just emitted.
                values = list(cell.numbers())
                if values:
                    val_positions = [
                        k for k in range(len(token_ids))
                        if cell_ids[k] == cell_counter - 1
                        and token_ids[k] == vocab.val_id
                    ]
                    for k, value in zip(val_positions, values):
                        numeric[k] = numeric_features(value)

        arrays = {
            "token_ids": np.array(token_ids[: self.max_seq_len], dtype=np.int64),
            "numeric": np.array(numeric[: self.max_seq_len], dtype=np.int64),
            "rows": np.array(rows[: self.max_seq_len], dtype=np.int64),
            "cols": np.array(cols[: self.max_seq_len], dtype=np.int64),
            "depths": np.array(depths[: self.max_seq_len], dtype=np.int64),
            "cell_ids": np.array(cell_ids[: self.max_seq_len], dtype=np.int64),
        }
        arrays["refs"] = refs
        return arrays

    # ------------------------------------------------------------------
    # Pre-training
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, corpus: list[Table], steps: int = 150, hidden: int = 48,
              num_layers: int = 2, num_heads: int = 4, vocab_size: int = 1500,
              max_seq_len: int = 128, batch_size: int = 8, lr: float = 3e-4,
              seed: int = 0) -> "TutaEmbedder":
        from ..core.embedder import corpus_texts

        tokenizer = WordPieceTokenizer.train(corpus_texts(corpus),
                                             vocab_size=vocab_size)
        rng = np.random.default_rng(seed)
        model = TutaModel(vocab_size=len(tokenizer.vocab), hidden=hidden,
                          num_layers=num_layers, num_heads=num_heads,
                          intermediate=hidden * 4, rng=rng)
        embedder = cls(tokenizer, model, max_seq_len=max_seq_len)
        if steps > 0:
            embedder.pretrain(corpus, steps=steps, batch_size=batch_size,
                              lr=lr, seed=seed + 1)
        model.eval()
        return embedder

    def pretrain(self, corpus: list[Table], steps: int, batch_size: int = 8,
                 lr: float = 3e-4, mlm_probability: float = 0.15,
                 seed: int = 0) -> list[float]:
        serialized = [self.serialize(t) for t in corpus]
        serialized = [s for s in serialized if len(s["token_ids"]) > 4]
        vocab = self.tokenizer.vocab
        rng = np.random.default_rng(seed)
        optimizer = Adam(self.model.parameters(), lr=lr)
        schedule = LinearWarmupSchedule(optimizer, max(1, steps // 10), steps)
        losses: list[float] = []
        self.model.train()
        special = sorted(vocab.special_ids() - {vocab.val_id})
        for _ in range(steps):
            picks = rng.integers(len(serialized), size=min(batch_size, len(serialized)))
            batch = [serialized[i] for i in picks]
            token_ids, numeric, rows, cols, depths, valid = self._pad(batch, vocab.pad_id)
            masked = token_ids.copy()
            labels = np.full_like(token_ids, IGNORE_INDEX)
            eligible = valid & ~np.isin(token_ids, special)
            lottery = (rng.random(token_ids.shape) < mlm_probability) & eligible
            if not lottery.any():
                continue
            labels[lottery] = token_ids[lottery]
            masked[lottery] = vocab.mask_id
            hidden = self.model(masked, numeric, rows, cols, depths, valid)
            logits = self.model.mlm_head(hidden)
            loss = cross_entropy(logits.reshape(-1, self.model.vocab_size),
                                 labels.reshape(-1))
            optimizer.zero_grad()
            loss.backward()
            clip_grad_norm(self.model.parameters(), 1.0)
            optimizer.step()
            schedule.step()
            losses.append(float(loss.data))
        self.model.eval()
        return losses

    @staticmethod
    def _pad(batch: list[dict], pad_id: int):
        n = max(len(b["token_ids"]) for b in batch)
        B = len(batch)
        token_ids = np.full((B, n), pad_id, dtype=np.int64)
        numeric = np.zeros((B, n, 4), dtype=np.int64)
        rows = np.zeros((B, n), dtype=np.int64)
        cols = np.zeros((B, n), dtype=np.int64)
        depths = np.zeros((B, n), dtype=np.int64)
        valid = np.zeros((B, n), dtype=bool)
        for b, item in enumerate(batch):
            k = len(item["token_ids"])
            token_ids[b, :k] = item["token_ids"]
            numeric[b, :k] = item["numeric"]
            rows[b, :k] = item["rows"]
            cols[b, :k] = item["cols"]
            depths[b, :k] = item["depths"]
            valid[b, :k] = True
        return token_ids, numeric, rows, cols, depths, valid

    # ------------------------------------------------------------------
    # Embeddings
    # ------------------------------------------------------------------
    def _states(self, table: Table) -> tuple[np.ndarray, np.ndarray, list]:
        arrays = self.serialize(table)
        token_ids, numeric, rows, cols, depths, valid = self._pad(
            [arrays], self.tokenizer.vocab.pad_id
        )
        with self.model.inference():
            hidden = self.model(token_ids, numeric, rows, cols, depths, valid)
        return hidden.data[0], arrays["cell_ids"], arrays["refs"]

    def _table_pool(self, table: Table) -> dict[str, np.ndarray]:
        key = (id(table), "pool")
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        states, cell_ids, refs = self._states(table)
        pooled: dict[int, np.ndarray] = {}
        for idx in range(len(refs)):
            positions = np.nonzero(cell_ids == idx)[0]
            if positions.size:
                pooled[idx] = states[positions].mean(axis=0)
        out = {"refs": refs, "pooled": pooled, "all": states[: len(cell_ids)]}
        self._cache[key] = out
        return out

    def embed_column(self, table: Table, j: int) -> np.ndarray:
        pool = self._table_pool(table)
        vectors = [
            v for idx, v in pool["pooled"].items()
            if pool["refs"][idx][0] in ("data", "hmd")
            and pool["refs"][idx][2] == j
        ]
        if not vectors:
            return np.zeros(self.model.hidden)
        return np.mean(vectors, axis=0)

    def embed_table(self, table: Table) -> np.ndarray:
        pool = self._table_pool(table)
        if not pool["pooled"]:
            return np.zeros(self.model.hidden)
        return np.mean(list(pool["pooled"].values()), axis=0)

    def embed_text(self, text: str) -> np.ndarray:
        key = (hash(text), "text")
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        vocab = self.tokenizer.vocab
        ids = [vocab.cls_id] + self.tokenizer.encode(text)
        ids = np.array(ids[: self.max_seq_len], dtype=np.int64)
        arrays = {
            "token_ids": ids,
            "numeric": np.zeros((len(ids), 4), dtype=np.int64),
            "rows": np.zeros(len(ids), dtype=np.int64),
            "cols": np.arange(len(ids)) % self.model.max_positions,
            "depths": np.zeros(len(ids), dtype=np.int64),
        }
        token_ids, numeric, rows, cols, depths, valid = self._pad(
            [arrays], vocab.pad_id
        )
        with self.model.inference():
            hidden = self.model(token_ids, numeric, rows, cols, depths, valid)
        vector = hidden.data[0, valid[0]].mean(axis=0)
        self._cache[key] = vector
        return vector
