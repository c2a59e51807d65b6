"""Dataset container and split/encoding helpers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.rng import SeedLike, ensure_rng


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """One-hot encode an integer label vector.

    >>> one_hot(np.array([0, 2]), 3).tolist()
    [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ConfigurationError(
            f"labels out of range [0, {n_classes}): [{labels.min()}, {labels.max()}]"
        )
    out = np.zeros((labels.shape[0], n_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def train_test_split(
    x: np.ndarray,
    y: np.ndarray,
    test_fraction: float = 0.2,
    seed: SeedLike = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shuffled split into ``(x_train, y_train, x_test, y_test)``."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigurationError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if len(x) != len(y):
        raise ShapeError(f"x has {len(x)} samples, y has {len(y)}")
    rng = ensure_rng(seed)
    order = rng.permutation(len(x))
    n_test = max(1, int(round(test_fraction * len(x))))
    test_idx, train_idx = order[:n_test], order[n_test:]
    return x[train_idx], y[train_idx], x[test_idx], y[test_idx]


@dataclass
class Dataset:
    """A labelled classification dataset with train/test partitions.

    ``x_*`` arrays keep their natural shape (NCHW images or flat
    vectors); ``y_*`` are one-hot.  ``class_names`` is optional metadata
    used in reports.
    """

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    class_names: List[str] = field(default_factory=list)
    name: str = "dataset"

    def __post_init__(self) -> None:
        if len(self.x_train) != len(self.y_train):
            raise ShapeError("x_train/y_train length mismatch")
        if len(self.x_test) != len(self.y_test):
            raise ShapeError("x_test/y_test length mismatch")
        if self.y_train.ndim != 2:
            raise ShapeError("y_train must be one-hot (2-D)")

    @property
    def n_classes(self) -> int:
        """Number of classes (width of the one-hot labels)."""
        return int(self.y_train.shape[1])

    @property
    def sample_shape(self) -> Tuple[int, ...]:
        """Shape of one input sample (no batch dim)."""
        return tuple(self.x_train.shape[1:])

    @property
    def n_train(self) -> int:
        return int(len(self.x_train))

    @property
    def n_test(self) -> int:
        return int(len(self.x_test))

    def describe(self) -> str:
        """One-line summary used by the benchmark harness."""
        return (
            f"{self.name}: {self.n_train} train / {self.n_test} test, "
            f"{self.n_classes} classes, sample shape {self.sample_shape}"
        )
