"""``encode_pooled`` runs in inference mode: same vectors as a recorded
forward, the model's mode restored, and training unaffected afterwards."""

import numpy as np

from repro.core.model import TabBiNModel
from repro.nn import IGNORE_INDEX, cross_entropy
from repro.tables import figure1_table, table1_nested


def fresh_model(config, tokenizer) -> TabBiNModel:
    """A new model is in training mode."""
    return TabBiNModel(config, pad_id=tokenizer.vocab.pad_id,
                       rng=np.random.default_rng(0))


def test_encode_pooled_equals_recorded_forward(model, serializer):
    seqs = (serializer.serialize(figure1_table(), "row")
            + serializer.serialize(table1_nested(), "column"))
    hidden, _valid = model(seqs)
    assert hidden.requires_grad  # the reference forward recorded a graph
    pooled = model.encode_pooled(seqs)
    for b, (seq, got) in enumerate(zip(seqs, pooled)):
        expected = {idx: hidden.data[b, seq.tokens_of_cell(idx)].mean(axis=0)
                    for idx in range(len(seq.cell_refs))
                    if seq.tokens_of_cell(idx).size}
        assert got.keys() == expected.keys()
        for idx, vector in expected.items():
            assert np.array_equal(got[idx], vector)


def test_training_model_returns_in_training_mode(config, tokenizer, serializer):
    m = fresh_model(config, tokenizer)
    m.encode_pooled(serializer.serialize(figure1_table(), "row"))
    assert m.training
    assert all(layer.training for layer in m.encoder.layers)


def test_backward_fills_grads_after_an_encode(config, tokenizer, serializer):
    m = fresh_model(config, tokenizer)
    seqs = serializer.serialize(figure1_table(), "row")
    m.encode_pooled(seqs)
    hidden, valid = m(seqs)
    logits = m.mlm_logits(hidden)
    targets = np.where(valid, seqs[0].token_ids[0], IGNORE_INDEX)
    loss = cross_entropy(logits.reshape(-1, logits.shape[-1]),
                         targets.reshape(-1))
    loss.backward()
    grads = [p.grad for p in m.parameters()]
    assert all(g is not None for g in grads)
    assert any(np.abs(g).sum() > 0 for g in grads)
