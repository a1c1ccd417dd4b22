"""The incremental WordPiece trainer against a full-recount reference.

``reference_train`` is the straightforward trainer: after every merge it
recounts every piece and every pair of every word and re-splits every
word.  ``WordPieceTokenizer.train`` keeps its counts incrementally; the
two must agree token for token and id for id, score ties included (the
reference meets pairs in first-seen word order, left to right, and keeps
the first of equal scores).
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.embedder import corpus_texts
from repro.datasets import PROFILES, load_dataset
from repro.text import Vocabulary, WordPieceTokenizer
from repro.text.tokenizer import is_number_token, pretokenize


def reference_train(corpus: list[str], vocab_size: int = 2000,
                    min_pair_freq: int = 2) -> Vocabulary:
    word_freqs: Counter[str] = Counter()
    for text in corpus:
        for word in pretokenize(text):
            if not is_number_token(word):
                word_freqs[word] += 1

    splits = {
        word: [word[0]] + ["##" + ch for ch in word[1:]]
        for word in word_freqs
    }
    vocab_tokens: dict[str, None] = {}
    for pieces in splits.values():
        for piece in pieces:
            vocab_tokens.setdefault(piece, None)

    while len(vocab_tokens) < vocab_size:
        pair_freqs: Counter[tuple[str, str]] = Counter()
        piece_freqs: Counter[str] = Counter()
        for word, freq in word_freqs.items():
            pieces = splits[word]
            for piece in pieces:
                piece_freqs[piece] += freq
            for a, b in zip(pieces, pieces[1:]):
                pair_freqs[(a, b)] += freq
        if not pair_freqs:
            break
        best_pair, best_score = None, 0.0
        for (a, b), freq in pair_freqs.items():
            if freq < min_pair_freq:
                continue
            score = freq / (piece_freqs[a] * piece_freqs[b])
            if score > best_score:
                best_pair, best_score = (a, b), score
        if best_pair is None:
            break
        merged = best_pair[0] + best_pair[1].removeprefix("##")
        vocab_tokens.setdefault(merged, None)
        a, b = best_pair
        for word, pieces in splits.items():
            out: list[str] = []
            i = 0
            while i < len(pieces):
                if i + 1 < len(pieces) and pieces[i] == a and pieces[i + 1] == b:
                    out.append(merged)
                    i += 2
                else:
                    out.append(pieces[i])
                    i += 1
            splits[word] = out

    return Vocabulary(sorted(vocab_tokens))


def assert_same_vocab(corpus: list[str], vocab_size: int,
                      min_pair_freq: int = 2) -> None:
    trained = WordPieceTokenizer.train(corpus, vocab_size=vocab_size,
                                       min_pair_freq=min_pair_freq).vocab
    assert list(trained) == list(reference_train(corpus, vocab_size,
                                                 min_pair_freq))


# Words over a 3- to 5-letter alphabet repeat pieces and pairs so often
# that equal scores are the rule, not the exception.
@st.composite
def small_alphabet_corpora(draw):
    alphabet = "abcde"[:draw(st.integers(3, 5))]
    words = st.text(alphabet=alphabet, min_size=1, max_size=7)
    texts = draw(st.lists(st.lists(words, min_size=1, max_size=6)
                          .map(" ".join), min_size=1, max_size=25))
    return texts


@settings(max_examples=300, deadline=None)
@given(corpus=small_alphabet_corpora(), vocab_size=st.integers(5, 120),
       min_pair_freq=st.sampled_from([1, 2, 3]))
def test_matches_the_full_recount(corpus, vocab_size, min_pair_freq):
    assert_same_vocab(corpus, vocab_size, min_pair_freq)


def test_a_tie_goes_to_the_pair_seen_first():
    # Four characters and room for one merge: "ab" and "cd" both score
    # 1 / (1 * 1), and "ab" is met first.
    vocab = WordPieceTokenizer.train(["ab cd"], vocab_size=5,
                                     min_pair_freq=1).vocab
    assert "ab" in vocab and "cd" not in vocab
    assert_same_vocab(["ab cd"], 5, 1)


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_named_corpus_at_bench_scale(name):
    """Each corpus as the paper-table benches build it (24 tables,
    vocab 700)."""
    assert_same_vocab(corpus_texts(load_dataset(name, 24)), 700)


def test_the_ingest_workloads_vocabulary():
    """The first 48 of cancerkg's 1 145 tables at vocab 500: the
    embedder of the full-scale ``ingest_mixed`` end-to-end workload
    (64 base tables + 1 081 never-seen ones)."""
    tables = load_dataset("cancerkg", 1145)[:48]
    assert_same_vocab(corpus_texts(tables), 500)
