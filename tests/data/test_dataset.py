"""Unit tests for the Dataset container and helpers."""

import numpy as np
import pytest

from repro.data.dataset import Dataset, one_hot, train_test_split
from repro.exceptions import ConfigurationError, ShapeError


class TestOneHot:
    def test_basic(self):
        out = one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_array_equal(out, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            one_hot(np.array([3]), 3)
        with pytest.raises(ConfigurationError):
            one_hot(np.array([-1]), 3)

    def test_rejects_2d(self):
        with pytest.raises(ShapeError):
            one_hot(np.zeros((2, 2), dtype=int), 3)

    def test_empty(self):
        assert one_hot(np.array([], dtype=int), 3).shape == (0, 3)


class TestSplit:
    def test_sizes(self, rng):
        x = rng.normal(size=(100, 3))
        y = one_hot(rng.integers(0, 2, 100), 2)
        xtr, ytr, xte, yte = train_test_split(x, y, 0.2, seed=1)
        assert len(xte) == 20 and len(xtr) == 80
        assert len(ytr) == 80 and len(yte) == 20

    def test_partition_is_complete(self, rng):
        x = np.arange(50, dtype=float).reshape(50, 1)
        y = one_hot(np.zeros(50, dtype=int), 2)
        xtr, _ytr, xte, _yte = train_test_split(x, y, 0.3, seed=2)
        combined = np.sort(np.concatenate([xtr, xte]).ravel())
        np.testing.assert_array_equal(combined, np.arange(50))

    def test_deterministic(self, rng):
        x = rng.normal(size=(30, 2))
        y = one_hot(rng.integers(0, 2, 30), 2)
        a = train_test_split(x, y, 0.25, seed=5)
        b = train_test_split(x, y, 0.25, seed=5)
        for arr_a, arr_b in zip(a, b):
            np.testing.assert_array_equal(arr_a, arr_b)

    def test_validation(self, rng):
        x = rng.normal(size=(10, 2))
        y = one_hot(np.zeros(10, dtype=int), 2)
        with pytest.raises(ConfigurationError):
            train_test_split(x, y, 0.0)
        with pytest.raises(ShapeError):
            train_test_split(x, y[:-1], 0.2)


class TestDataset:
    @pytest.fixture()
    def ds(self, rng):
        x = rng.normal(size=(40, 2))
        y = one_hot(rng.integers(0, 4, 40), 4)
        return Dataset(x[:30], y[:30], x[30:], y[30:], name="toy")

    def test_properties(self, ds):
        assert ds.n_classes == 4
        assert ds.sample_shape == (2,)
        assert ds.n_train == 30 and ds.n_test == 10

    def test_length_mismatch_raises(self, rng):
        x = rng.normal(size=(5, 2))
        y = one_hot(np.zeros(4, dtype=int), 2)
        with pytest.raises(ShapeError):
            Dataset(x, y, x, y)

    def test_test_split_length_mismatch_raises(self, ds):
        with pytest.raises(ShapeError, match="x_test"):
            Dataset(ds.x_train, ds.y_train, ds.x_test, ds.y_test[:-1])

    def test_labels_must_be_one_hot(self, ds):
        labels = np.argmax(ds.y_train, axis=1)
        with pytest.raises(ShapeError, match="one-hot"):
            Dataset(ds.x_train, labels, ds.x_test, ds.y_test)

    def test_describe_mentions_name(self, ds):
        assert "toy" in ds.describe()
