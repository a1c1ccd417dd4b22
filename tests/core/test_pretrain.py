"""MLM + CLC pre-training tests."""

import numpy as np
import pytest

from repro.core import TabBiNConfig
from repro.core.model import TabBiNModel
from repro.core.pretrain import TabBiNPretrainer
from repro.nn import IGNORE_INDEX
from repro.tables import figure1_table, table1_nested, table2_relational


@pytest.fixture()
def trainer(config, tokenizer):
    model = TabBiNModel(config, pad_id=tokenizer.vocab.pad_id,
                        rng=np.random.default_rng(0))
    return TabBiNPretrainer(model, tokenizer.vocab, config, seed=0)


@pytest.fixture()
def sequences(serializer):
    out = []
    for table in (figure1_table(), table1_nested(), table2_relational()):
        out.extend(serializer.serialize(table, "row"))
    return out


class TestMasking:
    def test_labels_only_at_masked_positions(self, trainer, sequences):
        masked, labels = trainer.mask_batch(sequences)
        originals, _ = trainer.model.embedding.batch_arrays(
            sequences, trainer.vocab.pad_id)[0], None
        changed = masked != originals
        # Every changed position must have a label…
        assert (labels[changed] != IGNORE_INDEX).all()
        # …and labels store the original token.
        labeled = labels != IGNORE_INDEX
        assert (labels[labeled] == originals[labeled]).all()

    def test_specials_never_masked(self, trainer, sequences):
        specials = sorted(trainer.vocab.special_ids() - {trainer.vocab.val_id})
        originals = trainer.model.embedding.batch_arrays(
            sequences, trainer.vocab.pad_id)[0]
        _masked, labels = trainer.mask_batch(sequences)
        special_positions = np.isin(originals, specials)
        assert (labels[special_positions] == IGNORE_INDEX).all()

    def test_masking_rate_reasonable(self, trainer, sequences):
        rates = []
        for _ in range(10):
            _masked, labels = trainer.mask_batch(sequences)
            rates.append((labels != IGNORE_INDEX).mean())
        # MLM 15% + CLC whole cells: expect a low but non-trivial rate.
        assert 0.03 < np.mean(rates) < 0.6

    def test_at_least_one_target_per_sequence(self, trainer, sequences):
        for seq in sequences:
            _masked, labels = trainer.mask_batch([seq])
            assert (labels != IGNORE_INDEX).any()

    def test_clc_masks_whole_cells(self, config, tokenizer, serializer):
        """With clc_probability=1 every cell is fully masked."""
        from dataclasses import replace

        clc_config = replace(config, clc_probability=1.0, mlm_probability=0.0)
        model = TabBiNModel(clc_config, pad_id=tokenizer.vocab.pad_id,
                            rng=np.random.default_rng(0))
        trainer = TabBiNPretrainer(model, tokenizer.vocab, clc_config, seed=0)
        seq = serializer.serialize(table2_relational(), "row")[0]
        masked, labels = trainer.mask_batch([seq])
        for idx in range(len(seq.cell_refs)):
            positions = seq.tokens_of_cell(idx)
            assert (masked[0, positions] == tokenizer.vocab.mask_id).all()
            assert (labels[0, positions] != IGNORE_INDEX).all()


def loop_mask_batch(trainer, sequences):
    """The per-token loop masker the array version replaced, kept as the
    reference: same recipe, same RNG draws in the same order."""
    arrays = trainer.model.embedding.batch_arrays(sequences, trainer.vocab.pad_id)
    token_ids, valid = arrays[0].copy(), arrays[6]
    labels = np.full_like(token_ids, IGNORE_INDEX)
    special = trainer.vocab.special_ids() - {trainer.vocab.val_id}
    rng, config = trainer.rng, trainer.config
    for b, seq in enumerate(sequences):
        eligible = [i for i in range(len(seq))
                    if int(seq.token_ids[i]) not in special]
        if not eligible:
            continue
        clc_positions: set[int] = set()
        if len(seq.cell_refs) > 1:
            chosen = np.nonzero(rng.random(len(seq.cell_refs))
                                < config.clc_probability)[0]
            for cell_idx in chosen:
                clc_positions.update(int(p) for p in seq.tokens_of_cell(int(cell_idx)))
        for pos in clc_positions:
            labels[b, pos] = token_ids[b, pos]
            token_ids[b, pos] = trainer.vocab.mask_id
        remaining = np.array([i for i in eligible if i not in clc_positions],
                             dtype=np.int64)
        if remaining.size == 0:
            continue
        picked = remaining[rng.random(remaining.size) < config.mlm_probability]
        if picked.size == 0:
            picked = remaining[rng.integers(remaining.size, size=1)]
        for pos in picked:
            labels[b, pos] = token_ids[b, pos]
            roll = rng.random()
            if roll < 0.8:
                token_ids[b, pos] = trainer.vocab.mask_id
            elif roll < 0.9:
                token_ids[b, pos] = int(rng.integers(len(trainer.vocab)))
    labels[~valid] = IGNORE_INDEX
    return token_ids, labels


@pytest.mark.parametrize("clc_probability", [0.0, 0.3, 1.0])
def test_mask_batch_matches_the_loop_reference(config, tokenizer, sequences,
                                               clc_probability):
    from dataclasses import replace

    cfg = replace(config, clc_probability=clc_probability)
    pair = [TabBiNPretrainer(TabBiNModel(cfg, pad_id=tokenizer.vocab.pad_id,
                                         rng=np.random.default_rng(0)),
                             tokenizer.vocab, cfg, seed=3) for _ in range(2)]
    for start in range(0, len(sequences), 3):
        batch = sequences[start:start + 3]
        masked, labels = pair[0].mask_batch(batch)
        ref_masked, ref_labels = loop_mask_batch(pair[1], batch)
        assert np.array_equal(masked, ref_masked)
        assert np.array_equal(labels, ref_labels)


class TestTraining:
    def test_loss_decreases(self, trainer, sequences):
        stats = trainer.train(sequences, steps=25, batch_size=4, lr=5e-3)
        assert stats.steps == 25
        quarter = len(stats.losses) // 4
        assert (np.mean(stats.losses[-quarter:])
                < np.mean(stats.losses[:quarter])), (stats.losses[:3],
                                                     stats.losses[-3:])

    def test_accuracy_tracked(self, trainer, sequences):
        stats = trainer.train(sequences, steps=5, batch_size=2)
        assert len(stats.accuracies) == stats.steps
        assert all(0.0 <= a <= 1.0 for a in stats.accuracies)

    def test_empty_sequences_rejected(self, trainer):
        with pytest.raises(ValueError):
            trainer.train([], steps=1)

    def test_model_left_in_eval_mode(self, trainer, sequences):
        trainer.train(sequences, steps=2, batch_size=2)
        assert not trainer.model.training

    def test_stats_final_loss(self, trainer, sequences):
        stats = trainer.train(sequences, steps=3, batch_size=2)
        assert stats.final_loss == stats.losses[-1]
        from repro.core.pretrain import PretrainStats

        assert np.isnan(PretrainStats().final_loss)
