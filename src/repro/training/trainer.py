"""Baseline (conventional) software training — paper Eq. (1)–(3)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.data.dataset import Dataset
from repro.exceptions import ConfigurationError
from repro.nn.model import Sequential, TrainingHistory
from repro.nn.regularizers import L2Regularizer


@dataclass
class TrainConfig:
    """Epochs/batching/regularization for a software training run."""

    epochs: int = 15
    batch_size: int = 32
    l2_lambda: float = 1e-4

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.l2_lambda < 0:
            raise ConfigurationError(f"l2_lambda must be >= 0, got {self.l2_lambda}")


def train_baseline(
    model: Sequential,
    dataset: Dataset,
    config: Optional[TrainConfig] = None,
) -> TrainingHistory:
    """Train with cross-entropy + standard L2 (the paper's Eq. (1)).

    This produces the quasi-normal weight distribution of Fig. 3(a) that
    the T+T scenario maps directly to hardware.
    """
    config = config if config is not None else TrainConfig()
    if config.l2_lambda > 0:
        model.set_regularizers(L2Regularizer(config.l2_lambda))
    else:
        model.set_regularizers(None)
    return model.fit(
        dataset.x_train,
        dataset.y_train,
        epochs=config.epochs,
        batch_size=config.batch_size,
        validation_data=(dataset.x_test, dataset.y_test),
    )
