"""Vocabulary with the special tokens used by TabBiN serialization.

The paper adds ``[CLS]`` at the start of each row/column, ``[SEP]``
between cells, masks tokens with ``[MASK]`` for MLM, and tokenizes
numbers with the special token ``[VAL]`` (Section 3.1, "Token").
"""

from __future__ import annotations

import json
from pathlib import Path

PAD, UNK, CLS, SEP, MASK, VAL = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "[VAL]"
SPECIAL_TOKENS = (PAD, UNK, CLS, SEP, MASK, VAL)


class Vocabulary:
    """Bidirectional token <-> id mapping; ids are dense from zero."""

    def __init__(self, tokens: list[str] | None = None):
        self._token_to_id: dict[str, int] = {}
        self._id_to_token: list[str] = []
        for token in SPECIAL_TOKENS:
            self.add(token)
        for token in tokens or []:
            self.add(token)

    def add(self, token: str) -> int:
        """Insert ``token`` if new; return its id either way."""
        existing = self._token_to_id.get(token)
        if existing is not None:
            return existing
        idx = len(self._id_to_token)
        self._token_to_id[token] = idx
        self._id_to_token.append(token)
        return idx

    def id(self, token: str) -> int:
        """Id of ``token``, falling back to ``[UNK]``."""
        return self._token_to_id.get(token, self._token_to_id[UNK])

    def token(self, idx: int) -> str:
        return self._id_to_token[idx]

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __iter__(self):
        return iter(self._id_to_token)

    # Convenience ids used throughout serialization and pre-training.
    @property
    def pad_id(self) -> int:
        return self._token_to_id[PAD]

    @property
    def cls_id(self) -> int:
        return self._token_to_id[CLS]

    @property
    def sep_id(self) -> int:
        return self._token_to_id[SEP]

    @property
    def mask_id(self) -> int:
        return self._token_to_id[MASK]

    @property
    def val_id(self) -> int:
        return self._token_to_id[VAL]

    def special_ids(self) -> set[int]:
        return {self._token_to_id[t] for t in SPECIAL_TOKENS}

    # -- persistence -----------------------------------------------------
    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self._id_to_token))

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        tokens = json.loads(Path(path).read_text())
        if list(tokens[: len(SPECIAL_TOKENS)]) != list(SPECIAL_TOKENS):
            raise ValueError("vocabulary file does not start with the special tokens")
        vocab = cls()
        for token in tokens[len(SPECIAL_TOKENS):]:
            vocab.add(token)
        return vocab
