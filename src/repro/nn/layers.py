"""Neural network module system and basic layers.

Provides a light-weight analogue of ``torch.nn``: a :class:`Module` base
class with recursive parameter discovery, plus the layers the TabBiN
architecture needs (linear, embedding, layer norm, dropout).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .tensor import Tensor, embedding_lookup, no_grad


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; :meth:`parameters` and :meth:`state_dict` discover them
    recursively in attribute order.
    """

    def __init__(self):
        self._parameters: dict[str, Tensor] = {}
        self._modules: dict[str, Module] = {}
        self.training = True

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    # -- parameter traversal ------------------------------------------------
    def named_parameters(self, prefix: str = ""):
        for name, param in self._parameters.items():
            yield (prefix + name, param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of scalar weights in the module tree."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- train / eval mode ---------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    @contextmanager
    def inference(self):
        """Run the block in eval mode with no autograd graph.

        The one switch every inference path goes through: eval mode is
        entered only if the module is training, :func:`no_grad` is
        entered, and both are restored on exit, exceptions included.
        """
        training = self.training
        if training:
            self.eval()
        try:
            with no_grad():
                yield
        finally:
            if training:
                self.train()

    # -- (de)serialization ----------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            if param.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{param.data.shape} vs {state[name].shape}"
                )
            param.data = state[name].astype(param.data.dtype).copy()

    # -- call protocol ---------------------------------------------------------
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Parameter(Tensor):
    """A tensor registered as a trainable weight of a :class:`Module`."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class ModuleList(Module):
    """Hold an ordered list of submodules (registered for traversal)."""

    def __init__(self, modules=()):
        super().__init__()
        self._items: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> None:
        name = str(len(self._items))
        self._modules[name] = module
        self._items.append(module)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i) -> Module:
        return self._items[i]


class Linear(Module):
    """Affine map ``y = x W + b`` with Glorot-uniform initialization."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        bound = np.sqrt(6.0 / (in_features + out_features))
        self.weight = Parameter(rng.uniform(-bound, bound, (in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Trainable lookup table mapping integer ids to vectors."""

    def __init__(self, num_embeddings: int, dim: int,
                 rng: np.random.Generator | None = None, scale: float = 0.02):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.weight = Parameter(rng.standard_normal((num_embeddings, dim)) * scale)
        self.num_embeddings = num_embeddings
        self.dim = dim

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings}): "
                f"min={indices.min()}, max={indices.max()}"
            )
        return embedding_lookup(self.weight, indices)


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))
        self.eps = eps
        self.dim = dim

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered * (var + self.eps) ** -0.5
        return normed * self.gamma + self.beta


class Dropout(Module):
    """Inverted dropout; identity when :attr:`training` is ``False``."""

    def __init__(self, p: float = 0.1, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1): {p}")
        self.p = p
        self.rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self.rng.random(x.shape) < keep) / keep
        return x * Tensor(mask)
