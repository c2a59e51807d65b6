"""Toy vector dataset for unit tests and quick demos."""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset, one_hot, train_test_split
from repro.exceptions import ConfigurationError
from repro.rng import SeedLike, ensure_rng


def _to_dataset(
    x: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    name: str,
    test_fraction: float,
    rng: np.random.Generator,
) -> Dataset:
    y = one_hot(labels, n_classes)
    x_tr, y_tr, x_te, y_te = train_test_split(x, y, test_fraction, rng)
    return Dataset(x_tr, y_tr, x_te, y_te, name=name)


def make_blobs(
    n_samples: int = 300,
    n_classes: int = 3,
    n_features: int = 2,
    spread: float = 0.5,
    test_fraction: float = 0.25,
    seed: SeedLike = None,
) -> Dataset:
    """Isotropic Gaussian clusters, one per class."""
    if n_classes < 2:
        raise ConfigurationError(f"need >= 2 classes, got {n_classes}")
    rng = ensure_rng(seed)
    centers = rng.uniform(-3.0, 3.0, size=(n_classes, n_features))
    labels = rng.integers(0, n_classes, size=n_samples)
    x = centers[labels] + rng.normal(0.0, spread, size=(n_samples, n_features))
    return _to_dataset(x, labels, n_classes, "blobs", test_fraction, rng)
