"""Unit tests for the toy vector dataset."""

import numpy as np
import pytest

from repro.data.synthetic import make_blobs
from repro.exceptions import ConfigurationError


class TestBlobs:
    def test_shapes(self):
        ds = make_blobs(n_samples=100, n_classes=3, n_features=5, seed=1)
        assert ds.sample_shape == (5,)
        assert ds.n_classes == 3
        assert ds.n_train + ds.n_test == 100

    def test_separable_when_tight(self):
        """With tiny spread, nearest-centroid should be near-perfect —
        sanity that labels actually correspond to clusters."""
        ds = make_blobs(n_samples=200, n_classes=3, spread=0.05, seed=2)
        x, y = ds.x_train, ds.y_train.argmax(axis=1)
        centroids = np.stack([x[y == c].mean(axis=0) for c in range(3)])
        pred = np.argmin(
            np.linalg.norm(x[:, None, :] - centroids[None], axis=2), axis=1
        )
        assert np.mean(pred == y) > 0.95

    def test_rejects_single_class(self):
        with pytest.raises(ConfigurationError):
            make_blobs(n_classes=1)

    def test_deterministic(self):
        a = make_blobs(seed=7)
        b = make_blobs(seed=7)
        np.testing.assert_array_equal(a.x_train, b.x_train)
