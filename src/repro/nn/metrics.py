"""Classification metrics."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError


def _labels(a: np.ndarray) -> np.ndarray:
    """Class indices from either one-hot rows or an index vector."""
    a = np.asarray(a)
    if a.ndim == 2:
        return a.argmax(axis=1)
    if a.ndim == 1:
        return a.astype(np.int64)
    raise ShapeError(f"expected 1-D labels or 2-D one-hot, got shape {a.shape}")


def accuracy(pred: np.ndarray, target: np.ndarray) -> float:
    """Fraction of samples whose argmax prediction matches the target."""
    p, t = _labels(pred), _labels(target)
    if p.shape != t.shape:
        raise ShapeError(f"pred labels {p.shape} != target labels {t.shape}")
    if p.size == 0:
        return 0.0
    return float(np.mean(p == t))
