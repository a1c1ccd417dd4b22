"""Checkpoint save/load tests."""

import numpy as np
import pytest

from repro.nn import Linear, ModuleList, Tensor, load_checkpoint, save_checkpoint


def make_model(seed=0):
    rng = np.random.default_rng(seed)
    return ModuleList([Linear(4, 8, rng=rng), Linear(8, 2, rng=rng)])


def run(model, x):
    for layer in model:
        x = layer(x)
    return x


class TestCheckpoints:
    def test_roundtrip(self, tmp_path):
        model = make_model(seed=1)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path, meta={"note": "hello"})
        other = make_model(seed=2)
        x = Tensor(np.random.default_rng(0).standard_normal((3, 4)))
        assert not np.allclose(run(model, x).data, run(other, x).data)
        meta = load_checkpoint(other, path)
        assert meta == {"note": "hello"}
        assert np.allclose(run(model, x).data, run(other, x).data)

    def test_meta_optional(self, tmp_path):
        model = make_model()
        path = tmp_path / "m.npz"
        save_checkpoint(model, path)
        assert load_checkpoint(make_model(), path) == {}

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(make_model(), tmp_path / "nope.npz")

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "model.npz"
        save_checkpoint(make_model(), path)
        assert path.exists()

    def test_architecture_mismatch_raises(self, tmp_path):
        path = tmp_path / "m.npz"
        save_checkpoint(make_model(), path)
        rng = np.random.default_rng(0)
        wrong = ModuleList([Linear(4, 8, rng=rng)])
        with pytest.raises(KeyError):
            load_checkpoint(wrong, path)
