"""Vocabulary and WordPiece tokenizer tests."""

import pytest

from repro.text import (
    CLS,
    MASK,
    PAD,
    SEP,
    SPECIAL_TOKENS,
    UNK,
    VAL,
    Vocabulary,
    WordPieceTokenizer,
    is_number_token,
    pretokenize,
)

CORPUS = [
    "overall survival months ramucirumab treatment",
    "treatment efficacy survival rate response",
    "patient cohort previously untreated treatment",
    "hazard ratio progression free survival",
] * 4


class TestVocabulary:
    def test_special_tokens_first(self):
        vocab = Vocabulary()
        for i, tok in enumerate(SPECIAL_TOKENS):
            assert vocab.token(i) == tok
            assert vocab.id(tok) == i

    def test_add_idempotent(self):
        vocab = Vocabulary()
        a = vocab.add("hello")
        b = vocab.add("hello")
        assert a == b
        assert len(vocab) == len(SPECIAL_TOKENS) + 1

    def test_unknown_maps_to_unk(self):
        vocab = Vocabulary()
        assert vocab.token(vocab.id("nonexistent")) == UNK

    def test_convenience_ids(self):
        vocab = Vocabulary()
        assert vocab.token(vocab.pad_id) == PAD
        assert vocab.token(vocab.cls_id) == CLS
        assert vocab.token(vocab.sep_id) == SEP
        assert vocab.token(vocab.mask_id) == MASK
        assert vocab.token(vocab.val_id) == VAL

    def test_special_ids_set(self):
        vocab = Vocabulary()
        assert len(vocab.special_ids()) == len(SPECIAL_TOKENS)

    def test_save_load_roundtrip(self, tmp_path):
        vocab = Vocabulary(["alpha", "beta"])
        path = tmp_path / "vocab.json"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert len(loaded) == len(vocab)
        assert loaded.id("beta") == vocab.id("beta")

    def test_load_rejects_corrupt_file(self, tmp_path):
        path = tmp_path / "vocab.json"
        path.write_text('["not", "special", "tokens"]')
        with pytest.raises(ValueError):
            Vocabulary.load(path)

    def test_iteration_and_contains(self):
        vocab = Vocabulary(["x"])
        assert "x" in vocab
        assert "y" not in vocab
        assert "x" in list(vocab)


class TestPretokenize:
    def test_lowercases_and_splits(self):
        assert pretokenize("Hello World") == ["hello", "world"]

    def test_punctuation_separated(self):
        assert pretokenize("a,b") == ["a", ",", "b"]

    def test_decimal_number_kept_whole(self):
        assert pretokenize("20.3 months") == ["20.3", "months"]

    def test_is_number_token(self):
        assert is_number_token("20.3")
        assert is_number_token("-5")
        assert is_number_token(".5")
        assert not is_number_token("a20")
        assert not is_number_token("")


class TestWordPiece:
    def test_train_builds_vocab(self):
        tok = WordPieceTokenizer.train(CORPUS, vocab_size=150)
        assert len(tok.vocab) > len(SPECIAL_TOKENS)

    def test_frequent_words_become_single_tokens(self):
        tok = WordPieceTokenizer.train(CORPUS, vocab_size=300)
        assert tok.tokenize("survival") == ["survival"]
        assert tok.tokenize("treatment") == ["treatment"]

    def test_numbers_become_val(self):
        tok = WordPieceTokenizer.train(CORPUS, vocab_size=100)
        pieces = tok.tokenize("survival 20.3 months")
        assert VAL in pieces

    def test_numbers_kept_when_disabled(self):
        tok = WordPieceTokenizer.train(CORPUS, vocab_size=100)
        pieces = tok.tokenize("20.3", numbers_to_val=False)
        assert VAL not in pieces

    def test_unseen_word_decomposes_to_subwords(self):
        tok = WordPieceTokenizer.train(CORPUS, vocab_size=300)
        pieces = tok.tokenize("survivalrate")
        assert len(pieces) >= 1
        assert UNK not in pieces  # characters cover any a-z word
        rebuilt = pieces[0] + "".join(p[2:] for p in pieces[1:])
        assert rebuilt == "survivalrate"

    def test_unknown_characters_give_unk(self):
        tok = WordPieceTokenizer.train(CORPUS, vocab_size=100)
        pieces = tok.tokenize("中文")  # each char pretokenizes separately
        assert pieces and all(p == UNK for p in pieces)

    def test_very_long_word_gives_unk(self):
        tok = WordPieceTokenizer.train(CORPUS, vocab_size=100)
        assert tok.tokenize("x" * 50) == [UNK]

    def test_encode_decode_roundtrip_known_words(self):
        tok = WordPieceTokenizer.train(CORPUS, vocab_size=300)
        ids = tok.encode("treatment survival")
        assert tok.decode(ids) == "treatment survival"

    def test_continuation_pieces_have_prefix(self):
        tok = WordPieceTokenizer.train(CORPUS, vocab_size=80)
        pieces = tok.tokenize("zzzq")
        assert pieces[0][0] != "#"
        assert all(p.startswith("##") for p in pieces[1:])

    def test_vocab_size_bound_respected(self):
        tok = WordPieceTokenizer.train(CORPUS, vocab_size=60)
        # Specials + learned pieces; learning stops at the bound.
        assert len(tok.vocab) <= 60 + len(SPECIAL_TOKENS) + 30

    def test_deterministic(self):
        a = WordPieceTokenizer.train(CORPUS, vocab_size=120)
        b = WordPieceTokenizer.train(CORPUS, vocab_size=120)
        assert list(a.vocab) == list(b.vocab)
