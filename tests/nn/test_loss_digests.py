"""Pin every training loop's per-step losses.

Each run trains one model for a few seeded steps on the in-repo example
tables (or on a small generated entity-matching set) and returns its
per-step losses.  A change to a masking recipe, to an RNG stream or to
the optimizer step moves them by far more than ``rtol=1e-9``; BLAS
differences between machines stay well inside it.  The expected values
live in ``fixtures/loss_digests.json`` as ``float.hex()`` strings; to
regenerate them after a deliberate change run

    PYTHONPATH=src python tests/nn/test_loss_digests.py > tests/nn/fixtures/loss_digests.json
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import DittoMatcher, TextMLM, TutaEmbedder, corpus_tuples
from repro.core import TabBiNConfig, TabBiNEmbedder, TabBiNSerializer, corpus_texts
from repro.core.classifier import TabBiNMatcher
from repro.core.model import TabBiNModel
from repro.core.pretrain import TabBiNPretrainer
from repro.datasets import generate_em_dataset
from repro.metadata import MetadataClassifier, training_set_from_tables
from repro.tables import figure1_table, table1_nested, table2_relational
from repro.text import TypeInference, WordPieceTokenizer

FIXTURE = Path(__file__).parent / "fixtures" / "loss_digests.json"


def _tables():
    return [figure1_table(), table1_nested(), table2_relational()]


def _pairs():
    return generate_em_dataset("abt-buy", n_pairs=8, seed=3)


def run_tabbin() -> dict[str, list[float]]:
    tables = _tables()
    tokenizer = WordPieceTokenizer.train(corpus_texts(tables), vocab_size=300)
    config = TabBiNConfig.tiny().with_vocab(len(tokenizer.vocab))
    serializer = TabBiNSerializer(tokenizer, TypeInference(), config)
    sequences = [seq for table in tables
                 for seq in serializer.serialize(table, "row")]
    model = TabBiNModel(config, pad_id=tokenizer.vocab.pad_id,
                        rng=np.random.default_rng(1))
    stats = TabBiNPretrainer(model, tokenizer.vocab, config, seed=2).train(
        sequences, steps=12, batch_size=3, lr=5e-3)
    return {"tabbin": stats.losses, "tabbin_accuracy": stats.accuracies}


def run_text_mlm() -> dict[str, list[float]]:
    texts = corpus_tuples(_tables())
    model = TextMLM.train_on_texts(texts, steps=0, vocab_size=300, hidden=24,
                                   num_layers=1, max_len=32, seed=4)
    return {"text_mlm": model.pretrain(texts, steps=12, batch_size=3, lr=3e-3,
                                       seed=5)}


def run_tuta() -> dict[str, list[float]]:
    # A low masking rate over single-table batches makes some steps draw
    # no target, so the skip-on-empty path is part of the digest.
    tuta = TutaEmbedder.build(_tables(), steps=0, hidden=24, num_layers=1,
                              vocab_size=300, max_seq_len=48, seed=6)
    return {"tuta": tuta.pretrain(_tables(), steps=12, batch_size=1, lr=3e-3,
                                  mlm_probability=0.03, seed=7)}


def run_ditto() -> dict[str, list[float]]:
    pairs = _pairs()
    ditto = DittoMatcher.build(pairs, vocab_size=300, hidden=24, seed=8,
                               num_layers=1, max_len=48)
    return {"ditto": ditto.fit(pairs, epochs=2, batch_size=6, lr=1e-3, seed=9)}


def run_tabbin_matcher() -> dict[str, list[float]]:
    embedder, _stats = TabBiNEmbedder.build(
        _tables(), config=TabBiNConfig.tiny(), steps=0, vocab_size=300, seed=10)
    matcher = TabBiNMatcher(embedder, ensemble=2, seed=11)
    return {"tabbin_matcher": matcher.fit(_pairs(), epochs=6, lr=5e-3)}


def run_metadata() -> dict[str, list[float]]:
    lines, labels = training_set_from_tables(_tables())
    out = {}
    for architecture in ("bigru", "cnn"):
        clf = MetadataClassifier(architecture, hidden=8, seed=12)
        out[f"metadata_{architecture}"] = clf.fit(lines, labels, epochs=3,
                                                  batch_size=4, lr=2e-2)
    return out


RUNS = (run_tabbin, run_text_mlm, run_tuta, run_ditto, run_tabbin_matcher,
        run_metadata)


def _expected() -> dict[str, list[float]]:
    raw = json.loads(FIXTURE.read_text())
    return {name: [float.fromhex(h) for h in values]
            for name, values in raw.items()}


@pytest.mark.parametrize("run", RUNS, ids=lambda run: run.__name__[4:])
def test_losses_match_the_recorded_digest(run):
    expected = _expected()
    for name, losses in run().items():
        assert len(losses) == len(expected[name]), name
        np.testing.assert_allclose(losses, expected[name], rtol=1e-9,
                                   err_msg=name)


if __name__ == "__main__":
    digests = {}
    for run in RUNS:
        digests.update({name: [float(x).hex() for x in losses]
                        for name, losses in run().items()})
    json.dump(digests, sys.stdout, indent=1)
    sys.stdout.write("\n")
