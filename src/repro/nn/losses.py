"""Loss functions.

A loss exposes ``value(pred, target)`` (mean over the batch) and
``gradient(pred, target)`` (gradient of the mean loss w.r.t. ``pred``).
Targets for classification losses are one-hot float arrays so the same
API serves both hard and soft labels.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError

_EPS = 1e-12


def _check_same_shape(pred: np.ndarray, target: np.ndarray) -> None:
    if pred.shape != target.shape:
        raise ShapeError(f"pred shape {pred.shape} != target shape {target.shape}")


class Loss:
    """Base class for losses."""

    name = "loss"

    def value(self, pred: np.ndarray, target: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, pred: np.ndarray, target: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SoftmaxCrossEntropy(Loss):
    """Fused softmax + categorical cross-entropy.

    ``pred`` is the raw logits array ``(batch, classes)``; ``target`` is
    one-hot (or a soft distribution).  This is the loss the paper's
    Eq. (1) writes as the cross-entropy term :math:`C(W)`.
    """

    name = "softmax_cross_entropy"

    @staticmethod
    def probabilities(logits: np.ndarray) -> np.ndarray:
        """Row-wise softmax of ``logits`` (stable)."""
        shifted = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=-1, keepdims=True)

    def value(self, pred: np.ndarray, target: np.ndarray) -> float:
        _check_same_shape(pred, target)
        p = self.probabilities(pred)
        return float(-np.sum(target * np.log(p + _EPS)) / pred.shape[0])

    def gradient(self, pred: np.ndarray, target: np.ndarray) -> np.ndarray:
        _check_same_shape(pred, target)
        p = self.probabilities(pred)
        return (p - target) / pred.shape[0]
