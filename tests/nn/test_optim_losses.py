"""Adam, LR schedules, the shared training step, and loss functions."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Dropout,
    IGNORE_INDEX,
    LinearWarmupSchedule,
    Linear,
    Tensor,
    accuracy,
    binary_cross_entropy_with_logits,
    clip_grad_norm,
    cross_entropy,
    fit,
    mse,
)
from repro.nn.layers import Parameter

RNG = np.random.default_rng(5)


def quadratic_param(start=5.0):
    return Parameter(np.array([start]))


class TestOptimizers:
    def test_adam_converges_on_quadratic(self):
        p = quadratic_param(5.0)
        opt = Adam([p], lr=0.2)
        for _ in range(200):
            opt.zero_grad()
            loss = (p * p).sum()
            loss.backward()
            opt.step()
        assert abs(p.data.item()) < 1e-2

    def test_optimizer_requires_params(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_skips_params_without_grad(self):
        p = quadratic_param()
        opt = Adam([p], lr=0.1)
        opt.step()  # no grad set: no crash, no movement
        assert p.data.item() == 5.0

    def test_linear_regression_fits(self):
        rng = np.random.default_rng(0)
        layer = Linear(3, 1, rng=rng)
        X = rng.standard_normal((128, 3))
        w_true = np.array([[1.5], [-2.0], [0.7]])
        y = X @ w_true + 0.3
        opt = Adam(layer.parameters(), lr=0.05)
        for _ in range(300):
            opt.zero_grad()
            loss = mse(layer(Tensor(X)), y)
            loss.backward()
            opt.step()
        assert np.allclose(layer.weight.data, w_true, atol=0.05)
        assert layer.bias.data.item() == pytest.approx(0.3, abs=0.05)


class TestFit:
    """The one training step: Adam, optional warmup schedule and clip."""

    @staticmethod
    def regression(rng):
        X = rng.standard_normal((32, 3))
        return X, X @ np.array([[1.5], [-2.0], [0.7]])

    def test_matches_a_hand_written_loop(self):
        X, y = self.regression(np.random.default_rng(0))
        layer = Linear(3, 1, rng=np.random.default_rng(1))
        losses = fit(layer, range(6), lambda _: mse(layer(Tensor(X)), y), 0.05,
                     schedule_steps=6, clip=0.5)
        manual = Linear(3, 1, rng=np.random.default_rng(1))
        opt = Adam(manual.parameters(), lr=0.05)
        sched = LinearWarmupSchedule(opt, 1, 6)
        expected = []
        for _ in range(6):
            loss = mse(manual(Tensor(X)), y)
            opt.zero_grad()
            loss.backward()
            clip_grad_norm(manual.parameters(), 0.5)
            opt.step()
            sched.step()
            expected.append(float(loss.data))
        assert losses == expected
        assert np.array_equal(layer.weight.data, manual.weight.data)

    def test_none_skips_the_step(self):
        X, y = self.regression(np.random.default_rng(0))
        layer = Linear(3, 1, rng=np.random.default_rng(1))
        before = layer.weight.data.copy()
        losses = fit(layer, range(4), lambda _: None, 0.1)
        assert losses == []
        assert np.array_equal(layer.weight.data, before)
        losses = fit(layer, range(4),
                     lambda i: None if i % 2 else mse(layer(Tensor(X)), y), 0.1)
        assert len(losses) == 2

    def test_trains_in_training_mode_and_leaves_eval(self):
        drop = Dropout(0.5)
        layer = Linear(2, 1, rng=np.random.default_rng(0))
        layer.drop = drop
        modes = []

        def loss_of(_):
            modes.append(drop.training)
            return mse(layer(Tensor(np.ones((4, 2)))), np.zeros((4, 1)))

        layer.eval()
        fit(layer, range(2), loss_of, 0.1)
        assert modes == [True, True]
        assert not layer.training and not drop.training


class TestSchedule:
    def test_warmup_then_decay(self):
        p = quadratic_param()
        opt = Adam([p], lr=1.0)
        sched = LinearWarmupSchedule(opt, warmup_steps=10, total_steps=100)
        assert sched.lr_at(5) == pytest.approx(0.5)
        assert sched.lr_at(10) == pytest.approx(1.0)
        assert sched.lr_at(55) == pytest.approx(0.5)
        assert sched.lr_at(100) == pytest.approx(0.0)

    def test_step_updates_optimizer(self):
        p = quadratic_param()
        opt = Adam([p], lr=1.0)
        sched = LinearWarmupSchedule(opt, warmup_steps=2, total_steps=4)
        sched.step()
        assert opt.lr == pytest.approx(0.5)

    def test_invalid_bounds(self):
        p = quadratic_param()
        opt = Adam([p], lr=1.0)
        with pytest.raises(ValueError):
            LinearWarmupSchedule(opt, warmup_steps=5, total_steps=4)


class TestClipGradNorm:
    def test_no_clip_below_threshold(self):
        p = quadratic_param()
        p.grad = np.array([0.3])
        norm = clip_grad_norm([p], 1.0)
        assert norm == pytest.approx(0.3)
        assert p.grad.item() == pytest.approx(0.3)

    def test_clips_above_threshold(self):
        p = quadratic_param()
        p.grad = np.array([3.0, 4.0])  # norm 5
        p.data = np.zeros(2)
        norm = clip_grad_norm([p], 1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)


class TestLosses:
    def test_cross_entropy_matches_manual(self):
        logits = Tensor(np.array([[2.0, 0.0], [0.0, 2.0]]))
        targets = np.array([0, 0])
        loss = cross_entropy(logits, targets)
        p0 = np.exp(2) / (np.exp(2) + 1)
        p1 = 1 / (np.exp(2) + 1)
        expected = -(np.log(p0) + np.log(p1)) / 2
        assert float(loss.data) == pytest.approx(expected)

    def test_cross_entropy_ignore_index(self):
        logits = Tensor(np.array([[5.0, 0.0], [0.0, 5.0], [9.0, 9.0]]))
        targets = np.array([0, IGNORE_INDEX, 1])
        loss = cross_entropy(logits, targets)
        # Only positions 0 and 2 count.
        assert float(loss.data) > 0
        all_ignored = np.array([IGNORE_INDEX, IGNORE_INDEX, IGNORE_INDEX])
        with pytest.raises(ValueError):
            cross_entropy(logits, all_ignored)

    def test_cross_entropy_gradient_only_on_kept_rows(self):
        logits = Tensor(RNG.standard_normal((3, 4)), requires_grad=True)
        targets = np.array([1, IGNORE_INDEX, 2])
        cross_entropy(logits, targets).backward()
        assert np.allclose(logits.grad[1], 0.0)
        assert np.abs(logits.grad[0]).sum() > 0

    def test_cross_entropy_shape_validation(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.zeros((3,), dtype=int))

    def test_bce_matches_manual(self):
        logits = Tensor(np.array([0.0, 2.0]))
        targets = np.array([1.0, 0.0])
        loss = float(binary_cross_entropy_with_logits(logits, targets).data)
        expected = (np.log(2) + (2 + np.log(1 + np.exp(-2)))) / 2
        assert loss == pytest.approx(expected, rel=1e-6)

    def test_bce_stable_for_extreme_logits(self):
        logits = Tensor(np.array([500.0, -500.0]))
        targets = np.array([1.0, 0.0])
        loss = float(binary_cross_entropy_with_logits(logits, targets).data)
        assert np.isfinite(loss) and loss < 1e-6

    def test_accuracy(self):
        logits = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
        targets = np.array([0, 1, 1])
        assert accuracy(logits, targets) == pytest.approx(2 / 3)
        targets = np.array([0, IGNORE_INDEX, 1])
        assert accuracy(logits, targets) == pytest.approx(0.5)
