"""Autograd engine tests: every op's gradient is checked numerically."""

import numpy as np
import pytest

from repro.nn.tensor import (
    Tensor,
    _unbroadcast,
    concatenate,
    embedding_lookup,
    ones,
    stack,
    where,
    zeros,
)

RNG = np.random.default_rng(42)


def numeric_grad(fn, x: np.ndarray, index, eps: float = 1e-6) -> float:
    xp, xm = x.copy(), x.copy()
    xp[index] += eps
    xm[index] -= eps
    return (fn(xp) - fn(xm)) / (2 * eps)


def check_grad(build, shape, spots=3, tol=1e-4):
    """Compare analytic vs central-difference gradients at random spots."""
    x = RNG.standard_normal(shape)
    t = Tensor(x, requires_grad=True)
    out = build(t)
    out.sum().backward()
    analytic = t.grad

    def scalar(arr):
        return float(build(Tensor(arr)).sum().data)

    for _ in range(spots):
        idx = tuple(int(RNG.integers(s)) for s in shape)
        expected = numeric_grad(scalar, x, idx)
        assert analytic[idx] == pytest.approx(expected, abs=tol), build


class TestElementwiseGradients:
    def test_add(self):
        check_grad(lambda t: t + 3.0, (4, 3))

    def test_mul(self):
        check_grad(lambda t: t * 2.5, (4, 3))

    def test_sub(self):
        check_grad(lambda t: t - 1.5, (2, 5))

    def test_neg(self):
        check_grad(lambda t: -t, (3,))

    def test_div(self):
        check_grad(lambda t: t / 4.0, (3, 2))

    def test_rdiv(self):
        x = np.abs(RNG.standard_normal((3, 3))) + 1.0
        t = Tensor(x, requires_grad=True)
        (2.0 / t).sum().backward()
        assert np.allclose(t.grad, -2.0 / x**2)

    def test_pow(self):
        check_grad(lambda t: t ** 3.0, (4,))

    def test_exp(self):
        check_grad(lambda t: t.exp(), (3, 3))

    def test_log(self):
        x = np.abs(RNG.standard_normal((4,))) + 0.5
        t = Tensor(x, requires_grad=True)
        t.log().sum().backward()
        assert np.allclose(t.grad, 1.0 / x)

    def test_tanh(self):
        check_grad(lambda t: t.tanh(), (5,))

    def test_sigmoid(self):
        check_grad(lambda t: t.sigmoid(), (5,))

    def test_relu(self):
        x = np.array([-2.0, -0.5, 0.5, 2.0])
        t = Tensor(x, requires_grad=True)
        t.relu().sum().backward()
        assert np.allclose(t.grad, [0, 0, 1, 1])

    def test_gelu(self):
        check_grad(lambda t: t.gelu(), (6,))

    def test_sqrt(self):
        x = np.abs(RNG.standard_normal((4,))) + 1.0
        t = Tensor(x, requires_grad=True)
        t.sqrt().sum().backward()
        assert np.allclose(t.grad, 0.5 / np.sqrt(x))


class TestMatmulGradients:
    def test_matmul_2d(self):
        a = Tensor(RNG.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(RNG.standard_normal((4, 5)), requires_grad=True)
        (a @ b).sum().backward()
        assert np.allclose(a.grad, np.ones((3, 5)) @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ np.ones((3, 5)))

    def test_matmul_batched(self):
        a = Tensor(RNG.standard_normal((2, 3, 4)), requires_grad=True)
        b = Tensor(RNG.standard_normal((2, 4, 5)), requires_grad=True)
        out = a @ b
        assert out.shape == (2, 3, 5)
        out.sum().backward()
        assert a.grad.shape == (2, 3, 4)
        assert b.grad.shape == (2, 4, 5)

    def test_matmul_broadcast_weights(self):
        # (B, n, d) @ (d, k): weight gradient sums over the batch.
        x = Tensor(RNG.standard_normal((2, 3, 4)), requires_grad=True)
        w = Tensor(RNG.standard_normal((4, 5)), requires_grad=True)
        (x @ w).sum().backward()
        assert w.grad.shape == (4, 5)
        expected = sum(x.data[b].T @ np.ones((3, 5)) for b in range(2))
        assert np.allclose(w.grad, expected)

    def test_matmul_numeric(self):
        w = Tensor(RNG.standard_normal((4, 2)))
        check_grad(lambda t: t @ w, (3, 4))


class TestBroadcasting:
    def test_unbroadcast_shapes(self):
        grad = np.ones((2, 3, 4))
        assert _unbroadcast(grad, (3, 4)).shape == (3, 4)
        assert _unbroadcast(grad, (1, 4)).shape == (1, 4)
        assert _unbroadcast(grad, (2, 1, 1)).shape == (2, 1, 1)

    def test_unbroadcast_preserves_total(self):
        grad = RNG.standard_normal((2, 3, 4))
        reduced = _unbroadcast(grad, (3, 1))
        assert reduced.sum() == pytest.approx(grad.sum())

    def test_add_bias_broadcast(self):
        x = Tensor(RNG.standard_normal((2, 3, 4)), requires_grad=True)
        b = Tensor(RNG.standard_normal((4,)), requires_grad=True)
        (x + b).sum().backward()
        assert b.grad.shape == (4,)
        assert np.allclose(b.grad, np.full(4, 6.0))

    def test_mul_scalar_tensor(self):
        x = Tensor(RNG.standard_normal((3, 2)), requires_grad=True)
        s = Tensor(2.0, requires_grad=True)
        (x * s).sum().backward()
        assert s.grad.shape == ()
        assert s.grad.item() == pytest.approx(float(x.data.sum()))


class TestReductions:
    def test_sum_all(self):
        check_grad(lambda t: t.sum(), (3, 4))

    def test_sum_axis(self):
        x = Tensor(RNG.standard_normal((3, 4)), requires_grad=True)
        x.sum(axis=0).sum().backward()
        assert np.allclose(x.grad, np.ones((3, 4)))

    def test_sum_keepdims(self):
        x = Tensor(RNG.standard_normal((3, 4)), requires_grad=True)
        out = x.sum(axis=1, keepdims=True)
        assert out.shape == (3, 1)
        out.sum().backward()
        assert np.allclose(x.grad, 1.0)

    def test_mean(self):
        x = Tensor(RNG.standard_normal((4, 5)), requires_grad=True)
        x.mean().backward()
        assert np.allclose(x.grad, 1.0 / 20)

    def test_mean_axis(self):
        x = Tensor(RNG.standard_normal((4, 5)), requires_grad=True)
        x.mean(axis=1).sum().backward()
        assert np.allclose(x.grad, 1.0 / 5)

    def test_max_routes_gradient(self):
        x = Tensor(np.array([[1.0, 5.0, 2.0], [7.0, 0.0, 3.0]]), requires_grad=True)
        x.max(axis=1).sum().backward()
        assert np.allclose(x.grad, [[0, 1, 0], [1, 0, 0]])

    def test_max_splits_ties(self):
        x = Tensor(np.array([2.0, 2.0, 1.0]), requires_grad=True)
        x.max().backward()
        assert x.grad.sum() == pytest.approx(1.0)
        assert np.allclose(x.grad, [0.5, 0.5, 0.0])


class TestShapes:
    def test_reshape(self):
        x = Tensor(RNG.standard_normal((2, 6)), requires_grad=True)
        out = x.reshape(3, 4)
        assert out.shape == (3, 4)
        (out * out).sum().backward()
        assert x.grad.shape == (2, 6)

    def test_transpose(self):
        x = Tensor(RNG.standard_normal((2, 3, 4)), requires_grad=True)
        out = x.transpose(0, 2, 1)
        assert out.shape == (2, 4, 3)
        out.sum().backward()
        assert x.grad.shape == (2, 3, 4)

    def test_transpose_default_reverses(self):
        x = Tensor(RNG.standard_normal((2, 3)))
        assert x.transpose().shape == (3, 2)

    def test_swapaxes(self):
        x = Tensor(RNG.standard_normal((2, 3, 4)))
        assert x.swapaxes(-1, -2).shape == (2, 4, 3)

    def test_getitem_slice(self):
        x = Tensor(RNG.standard_normal((4, 5)), requires_grad=True)
        x[1:3, :].sum().backward()
        expected = np.zeros((4, 5))
        expected[1:3] = 1.0
        assert np.allclose(x.grad, expected)

    def test_getitem_fancy_accumulates(self):
        x = Tensor(RNG.standard_normal((4,)), requires_grad=True)
        idx = np.array([0, 0, 2])
        x[idx].sum().backward()
        assert np.allclose(x.grad, [2.0, 0.0, 1.0, 0.0])


class TestPrimitives:
    def test_softmax_rows_sum_to_one(self):
        x = Tensor(RNG.standard_normal((3, 7)))
        out = x.softmax(axis=-1)
        assert np.allclose(out.data.sum(axis=-1), 1.0)

    def test_softmax_gradient(self):
        check_grad(lambda t: (t.softmax(axis=-1) * t.softmax(axis=-1)), (2, 5))

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(RNG.standard_normal((4, 6)))
        assert np.allclose(x.log_softmax().data, np.log(x.softmax().data))

    def test_log_softmax_gradient(self):
        check_grad(lambda t: t.log_softmax(axis=-1) * 0.5, (2, 4))

    def test_softmax_stability_large_values(self):
        x = Tensor(np.array([[1000.0, 1000.0, 999.0]]))
        out = x.softmax(axis=-1).data
        assert np.isfinite(out).all()
        assert out.sum() == pytest.approx(1.0)

    def test_masked_fill(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        mask = np.array([[True, False], [False, True]])
        out = x.masked_fill(mask, -9.0)
        assert np.allclose(out.data, [[-9, 1], [1, -9]])
        out.sum().backward()
        assert np.allclose(x.grad, [[0, 1], [1, 0]])

    def test_where(self):
        a = Tensor(np.ones(4), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        cond = np.array([True, False, True, False])
        where(cond, a, b).sum().backward()
        assert np.allclose(a.grad, [1, 0, 1, 0])
        assert np.allclose(b.grad, [0, 1, 0, 1])

    def test_concatenate_routes_gradient(self):
        a = Tensor(RNG.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(RNG.standard_normal((2, 2)), requires_grad=True)
        out = concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * out).sum().backward()
        assert np.allclose(a.grad, 2 * a.data)
        assert np.allclose(b.grad, 2 * b.data)

    def test_stack(self):
        a = Tensor(RNG.standard_normal((3,)), requires_grad=True)
        b = Tensor(RNG.standard_normal((3,)), requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 3)
        out.sum().backward()
        assert np.allclose(a.grad, 1.0)

    def test_embedding_lookup_scatter_add(self):
        w = Tensor(RNG.standard_normal((5, 3)), requires_grad=True)
        idx = np.array([[1, 1], [4, 0]])
        out = embedding_lookup(w, idx)
        assert out.shape == (2, 2, 3)
        out.sum().backward()
        assert np.allclose(w.grad[1], 2.0)
        assert np.allclose(w.grad[4], 1.0)
        assert np.allclose(w.grad[2], 0.0)


class TestGraphMechanics:
    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.backward()
        assert x.grad.item() == pytest.approx(7.0)

    def test_diamond_graph(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        a = x * 2.0
        b = x + 1.0
        (a * b).backward()  # d/dx (2x (x+1)) = 4x + 2
        assert x.grad.item() == pytest.approx(14.0)

    def test_backward_on_nonscalar_requires_grad_arg(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_without_requires_grad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(2)).backward(np.ones(2))

    def test_zero_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        x.sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_no_grad_tracking_for_plain_tensors(self):
        out = Tensor(np.ones(2)) + Tensor(np.ones(2))
        assert not out.requires_grad
        assert out._backward is None

    def test_helpers(self):
        assert zeros((2, 2)).data.sum() == 0
        assert ones((2, 2)).data.sum() == 4
        assert Tensor(np.float64(5)).item() == 5.0

    def test_tensor_exponent_rejected(self):
        with pytest.raises(TypeError):
            Tensor(np.ones(2)) ** Tensor(np.ones(2))
