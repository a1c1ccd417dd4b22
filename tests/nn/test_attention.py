"""Multi-head attention and visibility-mask behaviour."""

import numpy as np
import pytest

from repro.nn import MultiHeadSelfAttention, Tensor, full_attention_mask, pad_batch

RNG = np.random.default_rng(7)


def make_attn(hidden=8, heads=2):
    return MultiHeadSelfAttention(hidden, heads, rng=np.random.default_rng(1))


class TestShapes:
    def test_output_shape(self):
        attn = make_attn()
        out = attn(Tensor(RNG.standard_normal((3, 5, 8))))
        assert out.shape == (3, 5, 8)

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            make_attn()(Tensor(RNG.standard_normal((5, 8))))

    def test_hidden_must_divide_heads(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(10, 3)

    def test_bad_mask_shape_raises(self):
        attn = make_attn()
        x = Tensor(RNG.standard_normal((2, 4, 8)))
        with pytest.raises(ValueError):
            attn(x, np.ones((3, 3)))


class TestMasking:
    def test_full_mask_equals_no_mask(self):
        attn = make_attn()
        x = Tensor(RNG.standard_normal((2, 4, 8)))
        assert np.allclose(attn(x).data, attn(x, np.ones((4, 4))).data)

    def test_masked_token_has_no_influence(self):
        """Changing a token no other token can see leaves their outputs
        unchanged."""
        attn = make_attn()
        n = 4
        mask = np.ones((n, n), dtype=np.uint8)
        mask[:, 3] = 0       # nobody sees token 3
        mask[3, 3] = 1       # except itself
        x1 = RNG.standard_normal((1, n, 8))
        x2 = x1.copy()
        x2[0, 3] += 10.0
        out1 = attn(Tensor(x1), mask).data
        out2 = attn(Tensor(x2), mask).data
        assert np.allclose(out1[0, :3], out2[0, :3], atol=1e-10)
        assert not np.allclose(out1[0, 3], out2[0, 3])

    def test_visible_token_does_influence(self):
        attn = make_attn()
        x1 = RNG.standard_normal((1, 4, 8))
        x2 = x1.copy()
        x2[0, 3] += 10.0
        out1 = attn(Tensor(x1)).data
        out2 = attn(Tensor(x2)).data
        assert not np.allclose(out1[0, 0], out2[0, 0])

    def test_all_blocked_row_raises(self):
        attn = make_attn()
        mask = np.ones((4, 4))
        mask[2, :] = 0
        with pytest.raises(ValueError):
            attn(Tensor(RNG.standard_normal((1, 4, 8))), mask)

    def test_per_batch_masks(self):
        attn = make_attn()
        x = RNG.standard_normal((2, 3, 8))
        masks = np.ones((2, 3, 3), dtype=np.uint8)
        masks[1, 0, 2] = 0
        out_batch = attn(Tensor(x), masks).data
        out_first = attn(Tensor(x[:1]), masks[0]).data
        assert np.allclose(out_batch[0], out_first[0])


class TestPaddedBatches:
    def test_pad_batch_pads_with_fill_and_marks_valid(self):
        batch, valid = pad_batch([np.array([5, 6, 7]), np.array([8])], fill=1)
        assert batch.tolist() == [[5, 6, 7], [8, 1, 1]]
        assert batch.dtype == np.int64
        assert valid.tolist() == [[True, True, True], [True, False, False]]

    def test_pad_batch_keeps_trailing_dims(self):
        lines = [np.ones((2, 3)), np.zeros((0, 3))]
        batch, valid = pad_batch(lines)
        assert batch.shape == (2, 2, 3) and batch.dtype == np.float64
        assert (batch[0] == 1).all() and (batch[1] == 0).all()
        assert not valid[1].any()

    def test_full_attention_mask(self):
        valid = np.array([[True, True, False]])
        mask = full_attention_mask(valid)
        assert mask.dtype == np.uint8
        assert mask[0].tolist() == [[1, 1, 0], [1, 1, 0], [0, 0, 1]]


class TestGradients:
    def test_gradient_matches_numeric(self):
        attn = make_attn()
        x = RNG.standard_normal((1, 3, 8))
        mask = np.ones((3, 3))
        mask[0, 2] = mask[2, 0] = 0
        t = Tensor(x, requires_grad=True)
        (attn(t, mask) ** 2.0).sum().backward()
        idx = (0, 1, 4)
        eps = 1e-6
        xp, xm = x.copy(), x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        fp = float((attn(Tensor(xp), mask).data ** 2).sum())
        fm = float((attn(Tensor(xm), mask).data ** 2).sum())
        numeric = (fp - fm) / (2 * eps)
        assert t.grad[idx] == pytest.approx(numeric, abs=1e-4)

    def test_all_projections_receive_gradient(self):
        attn = make_attn()
        out = attn(Tensor(RNG.standard_normal((1, 4, 8)), requires_grad=True))
        (out * out).sum().backward()
        for _name, p in attn.named_parameters():
            assert p.grad is not None
