"""Unit tests for loss functions."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.nn.losses import SoftmaxCrossEntropy


def numeric_grad(loss, pred, target, eps=1e-6):
    grad = np.zeros_like(pred)
    it = np.nditer(pred, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = pred[idx]
        pred[idx] = orig + eps
        plus = loss.value(pred, target)
        pred[idx] = orig - eps
        minus = loss.value(pred, target)
        pred[idx] = orig
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


@pytest.fixture()
def classification_batch(rng):
    pred = rng.normal(size=(6, 4))
    target = np.eye(4)[rng.integers(0, 4, 6)]
    return pred, target


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_has_low_loss(self):
        loss = SoftmaxCrossEntropy()
        target = np.eye(3)
        pred = 100.0 * target
        assert loss.value(pred, target) < 1e-6

    def test_uniform_prediction_is_log_classes(self):
        loss = SoftmaxCrossEntropy()
        pred = np.zeros((5, 4))
        target = np.eye(4)[np.zeros(5, dtype=int)]
        np.testing.assert_allclose(loss.value(pred, target), np.log(4), rtol=1e-6)

    def test_gradient_matches_numeric(self, classification_batch):
        loss = SoftmaxCrossEntropy()
        pred, target = classification_batch
        np.testing.assert_allclose(
            loss.gradient(pred, target), numeric_grad(loss, pred, target), atol=1e-6
        )

    def test_gradient_rows_sum_to_zero(self, classification_batch):
        loss = SoftmaxCrossEntropy()
        pred, target = classification_batch
        np.testing.assert_allclose(
            loss.gradient(pred, target).sum(axis=1), np.zeros(len(pred)), atol=1e-12
        )

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            SoftmaxCrossEntropy().value(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_probabilities_stable_for_large_logits(self):
        p = SoftmaxCrossEntropy.probabilities(np.array([[1e5, 0.0]]))
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p[0, 0], 1.0)
