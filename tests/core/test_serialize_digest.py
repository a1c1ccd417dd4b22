"""Pin the serializer's output bit for bit.

One sha256 over every array (and cell ref) that ``serialize`` returns for
all four segments of fixed ``cancerkg`` and ``webtables`` tables.  A
refactor of the serializer must leave the digest unchanged; a deliberate
change of the encoding must update it here, in the same commit.
"""

import hashlib

from repro.core import SEGMENTS, TabBiNConfig, TabBiNSerializer, corpus_texts
from repro.datasets import load_dataset
from repro.text import TypeInference, WordPieceTokenizer

ARRAYS = ("token_ids", "numeric", "cell_pos", "coords", "type_ids",
          "features", "cell_index", "group_ids", "spans")

EXPECTED = "be6e4d25f06b0d75f1a14dbae0fb2ea41431e1792d30f3a6d1494f904d7a0d8a"


def serialization_digest() -> str:
    tables = (load_dataset("cancerkg", n_tables=6, seed=0)
              + load_dataset("webtables", n_tables=6, seed=0))
    tokenizer = WordPieceTokenizer.train(corpus_texts(tables), vocab_size=300)
    config = TabBiNConfig.tiny().with_vocab(len(tokenizer.vocab))
    serializer = TabBiNSerializer(tokenizer, TypeInference(), config)
    digest = hashlib.sha256()
    for table in tables:
        for segment in SEGMENTS:
            for seq in serializer.serialize(table, segment):
                digest.update(seq.segment.encode())
                for name in ARRAYS:
                    array = getattr(seq, name)
                    digest.update(f"{name}{array.dtype.str}{array.shape}".encode())
                    digest.update(array.tobytes())
                digest.update(repr(seq.cell_refs).encode())
    return digest.hexdigest()


def test_serialize_output_is_pinned():
    assert serialization_digest() == EXPECTED
