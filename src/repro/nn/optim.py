"""Adam, the warmup schedule, gradient clipping and :func:`fit`, the one
training step of every model here (TabBiN and the MLM baselines, the
DITTO, TabBiN-matcher and metadata classifiers)."""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .layers import Module
from .tensor import Tensor


class Adam:
    """Adam optimizer (Kingma & Ba); the paper trains with lr 2e-5."""

    def __init__(self, params: list[Tensor], lr: float = 1e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8):
        self.params = [p for p in params if p.requires_grad]
        if not self.params:
            raise ValueError("optimizer received no trainable parameters")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad * p.grad
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


class LinearWarmupSchedule:
    """Linear warmup to ``base_lr`` then linear decay to zero.

    Mirrors the BERT fine-tuning schedule used for the 50k-step
    pre-training runs in the paper.
    """

    def __init__(self, optimizer: Adam, warmup_steps: int, total_steps: int):
        if total_steps <= 0 or warmup_steps < 0 or warmup_steps > total_steps:
            raise ValueError("invalid schedule bounds")
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps
        self._step_count = 0

    def step(self) -> float:
        self._step_count += 1
        self.optimizer.lr = self.lr_at(self._step_count)
        return self.optimizer.lr

    def lr_at(self, step: int) -> float:
        if self.warmup_steps and step <= self.warmup_steps:
            return self.base_lr * step / self.warmup_steps
        remaining = max(self.total_steps - step, 0)
        denom = max(self.total_steps - self.warmup_steps, 1)
        return self.base_lr * remaining / denom


def clip_grad_norm(params: list[Tensor], max_norm: float) -> float:
    """Scale gradients in place so the global L2 norm is at most
    ``max_norm``; returns the pre-clip norm."""
    grads = [p.grad for p in params if p.grad is not None]
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


def sampled_batches(items: list, steps: int, batch_size: int,
                    rng: np.random.Generator):
    """``steps`` batches of ``min(batch_size, len(items))`` items drawn
    with replacement (the pre-training samplers)."""
    size = min(batch_size, len(items))
    for _ in range(steps):
        yield [items[i] for i in rng.integers(len(items), size=size)]


def epoch_batches(n: int, epochs: int, batch_size: int,
                  rng: np.random.Generator):
    """Index chunks of ``range(n)``, reshuffled every epoch (the
    supervised samplers)."""
    order = np.arange(n)
    for _ in range(epochs):
        rng.shuffle(order)
        for start in range(0, n, batch_size):
            yield order[start:start + batch_size]


def fit(module: Module, batches: Iterable, loss_of: Callable[..., Tensor | None],
        lr: float, *, schedule_steps: int | None = None,
        clip: float | None = None) -> list[float]:
    """Train ``module`` with Adam over ``batches``; return the losses.

    ``loss_of(batch)`` returns the batch's scalar loss, or ``None`` to
    skip the batch without a step.  With ``schedule_steps`` the learning
    rate follows :class:`LinearWarmupSchedule` (a tenth of the steps of
    warmup); with ``clip`` the gradient norm is clipped to it.  The
    module trains in training mode and is left in eval mode.
    """
    optimizer = Adam(module.parameters(), lr=lr)
    schedule = None
    if schedule_steps is not None:
        schedule = LinearWarmupSchedule(optimizer, max(1, schedule_steps // 10),
                                        schedule_steps)
    losses: list[float] = []
    module.train()
    for batch in batches:
        loss = loss_of(batch)
        if loss is None:
            continue
        optimizer.zero_grad()
        loss.backward()
        if clip is not None:
            clip_grad_norm(optimizer.params, clip)
        optimizer.step()
        if schedule is not None:
            schedule.step()
        losses.append(float(loss.data))
    module.eval()
    return losses
