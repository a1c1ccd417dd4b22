"""GRU / BiGRU / Conv1d substrate tests."""

import numpy as np
import pytest

from repro.nn import GRU, Adam, BiGRU, Conv1d, GlobalAvgPool1d, GlobalMaxPool1d, GRUCell, Linear, Tensor, binary_cross_entropy_with_logits

RNG = np.random.default_rng(11)


class TestGRU:
    def test_cell_shape(self):
        cell = GRUCell(4, 6, rng=np.random.default_rng(0))
        h = cell(Tensor(RNG.standard_normal((3, 4))), Tensor(np.zeros((3, 6))))
        assert h.shape == (3, 6)

    def test_sequence_output_shape(self):
        gru = GRU(4, 6, rng=np.random.default_rng(0))
        out = gru(Tensor(RNG.standard_normal((2, 5, 4))))
        assert out.shape == (2, 5, 6)

    def test_rejects_2d(self):
        gru = GRU(4, 6)
        with pytest.raises(ValueError):
            gru(Tensor(RNG.standard_normal((5, 4))))

    def test_reverse_differs(self):
        gru = GRU(4, 6, rng=np.random.default_rng(0))
        x = Tensor(RNG.standard_normal((1, 5, 4)))
        assert not np.allclose(gru(x).data, gru(x, reverse=True).data)

    def test_gradient_flows_through_time(self):
        gru = GRU(4, 6, rng=np.random.default_rng(0))
        x = Tensor(RNG.standard_normal((1, 6, 4)), requires_grad=True)
        (gru(x)[:, -1, :] ** 2.0).sum().backward()
        # The first timestep influences the last state.
        assert np.abs(x.grad[0, 0]).max() > 0

    def test_bigru_concatenates(self):
        bigru = BiGRU(4, 6, rng=np.random.default_rng(0))
        out = bigru(Tensor(RNG.standard_normal((2, 5, 4))))
        assert out.shape == (2, 5, 12)

    def test_bigru_pooled(self):
        bigru = BiGRU(4, 6, rng=np.random.default_rng(0))
        out = bigru.pooled(Tensor(RNG.standard_normal((3, 5, 4))))
        assert out.shape == (3, 12)

    def test_gru_learns_parity_of_first_token(self):
        """Trainability check: recover the first timestep's sign."""
        rng = np.random.default_rng(0)
        gru = GRU(2, 8, rng=rng)
        head = Linear(8, 1, rng=rng)
        params = gru.parameters() + head.parameters()
        opt = Adam(params, lr=0.02)
        X = rng.standard_normal((40, 4, 2))
        y = (X[:, 0, 0] > 0).astype(float)
        for _ in range(60):
            logits = head(gru(Tensor(X))[:, -1, :]).reshape(-1)
            loss = binary_cross_entropy_with_logits(logits, y)
            opt.zero_grad()
            loss.backward()
            opt.step()
        preds = (head(gru(Tensor(X))[:, -1, :]).data.reshape(-1) > 0)
        assert (preds == y.astype(bool)).mean() > 0.9


class TestConv1d:
    def test_same_padding_shape(self):
        conv = Conv1d(4, 6, 3, rng=np.random.default_rng(0))
        out = conv(Tensor(RNG.standard_normal((2, 7, 4))))
        assert out.shape == (2, 7, 6)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            Conv1d(4, 6, 2)

    def test_channel_mismatch_rejected(self):
        conv = Conv1d(4, 6, 3)
        with pytest.raises(ValueError):
            conv(Tensor(RNG.standard_normal((1, 5, 3))))

    def test_known_kernel_output(self):
        """A centered averaging kernel reproduces a moving average."""
        conv = Conv1d(1, 1, 3, rng=np.random.default_rng(0))
        conv.weight.data = np.full((3, 1), 1.0 / 3.0)
        conv.bias.data = np.zeros(1)
        x = np.arange(5, dtype=float).reshape(1, 5, 1)
        out = conv(Tensor(x)).data[0, :, 0]
        # Interior positions: exact moving average; borders zero-padded.
        assert out[2] == pytest.approx((1 + 2 + 3) / 3)
        assert out[0] == pytest.approx((0 + 0 + 1) / 3)

    def test_gradient_flows(self):
        conv = Conv1d(3, 4, 3, rng=np.random.default_rng(0))
        x = Tensor(RNG.standard_normal((2, 6, 3)), requires_grad=True)
        (conv(x) ** 2.0).sum().backward()
        assert x.grad is not None
        assert conv.weight.grad is not None

    def test_pools(self):
        x = Tensor(RNG.standard_normal((2, 5, 3)))
        assert GlobalMaxPool1d()(x).shape == (2, 3)
        assert GlobalAvgPool1d()(x).shape == (2, 3)
        assert np.allclose(GlobalMaxPool1d()(x).data, x.data.max(axis=1))
        assert np.allclose(GlobalAvgPool1d()(x).data, x.data.mean(axis=1))
