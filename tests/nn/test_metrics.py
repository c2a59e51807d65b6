"""Unit tests for classification metrics."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.nn.metrics import accuracy


class TestAccuracy:
    def test_perfect(self):
        pred = np.eye(3)
        assert accuracy(pred, pred) == 1.0

    def test_with_index_targets(self):
        pred = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert accuracy(pred, np.array([0, 1])) == 1.0
        assert accuracy(pred, np.array([1, 1])) == 0.5

    def test_empty_is_zero(self):
        assert accuracy(np.empty((0, 3)), np.empty((0, 3))) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            accuracy(np.zeros((2, 3)), np.zeros((3, 3)))

    def test_rejects_3d(self):
        with pytest.raises(ShapeError):
            accuracy(np.zeros((2, 3, 4)), np.zeros((2, 3, 4)))
