"""Inference mode: ``no_grad`` records no graph, ``Module.inference``
switches eval + no-grad once and restores both."""

import threading

import numpy as np
import pytest

from repro.nn import LayerNorm, Linear, Module, Parameter, TransformerEncoder
from repro.nn.tensor import Tensor, no_grad


def records_graph() -> bool:
    """Does an op on a parameter record a graph in this thread right now?"""
    out = Parameter(np.ones(2)) * 2.0
    return out.requires_grad and bool(out._parents)


def small_net_forward(x: Tensor, linear: Linear, norm: LayerNorm) -> Tensor:
    hidden = norm(linear(x).gelu())
    return (hidden.softmax(axis=-1) * hidden).sum(axis=-1).tanh()


class TestNoGrad:
    def test_ops_on_parameters_give_same_values_and_no_graph(self):
        rng = np.random.default_rng(0)
        linear = Linear(5, 7, rng=rng)
        norm = LayerNorm(7)
        x = Tensor(rng.standard_normal((3, 5)))
        recorded = small_net_forward(x, linear, norm)
        with no_grad():
            bare = small_net_forward(x, linear, norm)
            product = linear.weight * linear.weight
        assert recorded.requires_grad and recorded._parents
        assert np.array_equal(bare.data, recorded.data)
        for out in (bare, product):
            assert out.requires_grad is False
            assert out._parents == ()
            assert out._backward is None

    def test_flag_restored_after_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                assert not records_graph()
                raise ValueError("boom")
        assert records_graph()

    def test_flag_restored_after_nesting(self):
        with no_grad():
            with no_grad():
                assert not records_graph()
            assert not records_graph()
        assert records_graph()

    def test_other_threads_still_record(self):
        entered, release = threading.Event(), threading.Event()
        seen = {}

        def hold_no_grad():
            with no_grad():
                seen["inside"] = records_graph()
                entered.set()
                release.wait(timeout=10)

        worker = threading.Thread(target=hold_no_grad)
        worker.start()
        try:
            assert entered.wait(timeout=10)
            assert records_graph()
        finally:
            release.set()
            worker.join(timeout=10)
        assert seen["inside"] is False


class TestGelu:
    def test_forward_pinned_to_product_cube(self):
        x = np.random.default_rng(3).standard_normal(4096) * 3.0
        assert (x < 0).any() and (x > 0).any()
        c = np.sqrt(2.0 / np.pi)
        expected = 0.5 * x * (1 + np.tanh(c * (x + 0.044715 * ((x * x) * x))))
        assert np.array_equal(Tensor(x).gelu().data, expected)


class Net(Module):
    def __init__(self):
        super().__init__()
        self.encoder = TransformerEncoder(num_layers=1, hidden=8, num_heads=2,
                                          intermediate=16, dropout=0.5,
                                          rng=np.random.default_rng(0))


def all_modes(module: Module) -> set[bool]:
    modes = {module.training}
    for child in module._modules.values():
        modes |= all_modes(child)
    return modes


class TestModuleInference:
    def test_training_module_is_eval_inside_and_training_after(self):
        net = Net()
        with net.inference():
            assert all_modes(net) == {False}
            assert not records_graph()
        assert all_modes(net) == {True}
        assert records_graph()

    def test_eval_module_stays_eval(self):
        net = Net().eval()
        with net.inference():
            assert all_modes(net) == {False}
        assert all_modes(net) == {False}

    def test_restores_both_after_exception(self):
        net = Net()
        with pytest.raises(RuntimeError):
            with net.inference():
                raise RuntimeError("boom")
        assert all_modes(net) == {True}
        assert records_graph()
