"""Module system and basic layer tests."""

import numpy as np
import pytest

from repro.nn import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    Parameter,
    Tensor,
)

RNG = np.random.default_rng(0)


class ToyModel(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Linear(4, 8, rng=RNG)
        self.fc2 = Linear(8, 2, rng=RNG)
        self.scale = Parameter(np.ones(1))

    def forward(self, x):
        return self.fc2(self.fc1(x).relu()) * self.scale


class TestModule:
    def test_parameter_discovery_recursive(self):
        model = ToyModel()
        names = [n for n, _p in model.named_parameters()]
        assert "fc1.weight" in names and "fc2.bias" in names and "scale" in names

    def test_num_parameters(self):
        model = ToyModel()
        assert model.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2 + 1

    def test_state_dict_roundtrip(self):
        model = ToyModel()
        state = model.state_dict()
        other = ToyModel()
        other.load_state_dict(state)
        x = Tensor(RNG.standard_normal((3, 4)))
        assert np.allclose(model(x).data, other(x).data)

    def test_load_state_dict_missing_key_raises(self):
        model = ToyModel()
        state = model.state_dict()
        state.pop("scale")
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_load_state_dict_shape_mismatch_raises(self):
        model = ToyModel()
        state = model.state_dict()
        state["scale"] = np.ones(7)
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_zero_grad_clears_all(self):
        model = ToyModel()
        out = model(Tensor(RNG.standard_normal((2, 4))))
        out.sum().backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_train_eval_propagates(self):
        model = ModuleList([Linear(2, 2), Dropout(0.5)])
        model.eval()
        assert all(not m.training for m in model)
        model.train()
        assert all(m.training for m in model)

    def test_module_list(self):
        layers = ModuleList([Linear(2, 2), Linear(2, 2)])
        assert len(layers) == 2
        assert isinstance(layers[1], Linear)
        assert len(list(layers)) == 2


class TestLinear:
    def test_shapes(self):
        layer = Linear(5, 3, rng=RNG)
        out = layer(Tensor(RNG.standard_normal((7, 5))))
        assert out.shape == (7, 3)

    def test_batched_input(self):
        layer = Linear(5, 3, rng=RNG)
        out = layer(Tensor(RNG.standard_normal((2, 7, 5))))
        assert out.shape == (2, 7, 3)

    def test_no_bias(self):
        layer = Linear(4, 2, bias=False, rng=RNG)
        assert layer.bias is None
        zero = layer(Tensor(np.zeros((1, 4))))
        assert np.allclose(zero.data, 0.0)

    def test_affine_math(self):
        layer = Linear(2, 2, rng=RNG)
        layer.weight.data = np.array([[1.0, 2.0], [3.0, 4.0]])
        layer.bias.data = np.array([10.0, 20.0])
        out = layer(Tensor(np.array([[1.0, 1.0]])))
        assert np.allclose(out.data, [[14.0, 26.0]])


class TestEmbedding:
    def test_lookup(self):
        emb = Embedding(10, 4, rng=RNG)
        out = emb(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)
        assert np.allclose(out.data[0, 0], emb.weight.data[1])

    def test_out_of_range_raises(self):
        emb = Embedding(5, 4, rng=RNG)
        with pytest.raises(IndexError):
            emb(np.array([5]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))

    def test_gradient_accumulates_on_repeats(self):
        emb = Embedding(5, 3, rng=RNG)
        out = emb(np.array([2, 2, 2]))
        out.sum().backward()
        assert np.allclose(emb.weight.grad[2], 3.0)


class TestLayerNorm:
    def test_output_statistics(self):
        norm = LayerNorm(16)
        out = norm(Tensor(RNG.standard_normal((4, 16)) * 10 + 5))
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-2)

    def test_gamma_beta_applied(self):
        norm = LayerNorm(4)
        norm.gamma.data = np.full(4, 2.0)
        norm.beta.data = np.full(4, 7.0)
        out = norm(Tensor(RNG.standard_normal((2, 4))))
        assert out.data.mean() == pytest.approx(7.0, abs=1e-6)

    def test_gradient_flows(self):
        norm = LayerNorm(8)
        x = Tensor(RNG.standard_normal((3, 8)), requires_grad=True)
        (norm(x) ** 2.0).sum().backward()
        assert x.grad is not None and np.isfinite(x.grad).all()


class TestDropout:
    def test_eval_is_identity(self):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        drop.eval()
        x = Tensor(RNG.standard_normal((5, 5)))
        assert np.allclose(drop(x).data, x.data)

    def test_training_scales_kept_units(self):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((100, 100)))
        out = drop(x).data
        kept = out[out != 0]
        assert np.allclose(kept, 2.0)
        assert 0.35 < (out != 0).mean() < 0.65

    def test_p_zero_is_identity_in_training(self):
        drop = Dropout(0.0)
        x = Tensor(RNG.standard_normal((3, 3)))
        assert np.allclose(drop(x).data, x.data)

    def test_invalid_p_raises(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)
