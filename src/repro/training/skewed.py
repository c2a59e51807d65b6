"""Skewed-weight software training — paper Section IV-A.

Two-phase procedure:

1. **Pre-train** conventionally (cross-entropy + L2) so each layer
   settles into its quasi-normal weight distribution.  The paper's
   reference weight rule needs this: :math:`\\beta_i = c \\cdot
   \\sigma_i` where :math:`\\sigma_i` is the standard deviation of layer
   *i*'s trained weights (Section V / Table II).
2. **Skew-train**: swap the L2 term for the two-segment regularizer of
   Eq. (8)–(10) with per-layer :math:`\\beta_i` and penalties
   :math:`\\lambda_1 \\ge \\lambda_2`, and continue training.  The
   network keeps (approximately) its accuracy — neural networks have
   "flexibility in weight selection" — while the distribution skews
   towards small values as in Fig. 6(a)/Fig. 9.

The resulting small weights map to large resistances: lower programming
currents, less aging, and denser quantization levels under the inverse
resistance→conductance map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import ConfigurationError
from repro.nn.model import Sequential, TrainingHistory
from repro.nn.regularizers import SkewedL2Regularizer, beta_from_std
from repro.training.trainer import TrainConfig, train_baseline

#: Minibatch size of the skewed phase.
SKEW_BATCH_SIZE = 32


@dataclass
class SkewedTrainingConfig:
    """Parameters of the skewed phase (the paper's Table II knobs).

    Attributes
    ----------
    beta_scale:
        The constant ``c`` of the rule :math:`\\beta_i = c\\,\\sigma_i`.
        **Negative by default**: the reference weight sits on the left
        flank of the quasi-normal distribution (Fig. 7), so the mass is
        pushed towards the *algebraically smallest* weights — which
        Eq. (4) maps to the smallest conductances / largest resistances.
        A positive reference would leave the mass mid-range in
        conductance and forfeit both the current reduction and the
        dense-quantization benefit.
    lambda1, lambda2:
        Penalties left/right of the reference weight; the paper uses
        ``lambda1 >> lambda2`` for the small net and ``lambda1 =
        lambda2`` for the deep net (large nets are more sensitive).
    pretrain:
        Config of the conventional pre-training phase.
    skew_epochs:
        Duration of the skewed phase (minibatches of
        :data:`SKEW_BATCH_SIZE`).
    """

    beta_scale: float = -1.0
    lambda1: float = 8e-2
    lambda2: float = 1e-3
    pretrain: TrainConfig = None  # type: ignore[assignment]
    skew_epochs: int = 20

    def __post_init__(self) -> None:
        if self.pretrain is None:
            self.pretrain = TrainConfig()
        if self.lambda1 < self.lambda2:
            raise ConfigurationError(
                f"need lambda1 >= lambda2, got {self.lambda1} < {self.lambda2}"
            )
        if self.skew_epochs < 1:
            raise ConfigurationError(f"skew_epochs must be >= 1, got {self.skew_epochs}")


@dataclass
class SkewedTrainingResult:
    """Both phases' histories plus the per-layer reference weights."""

    pretrain_history: TrainingHistory
    skew_history: TrainingHistory
    betas: Dict[int, float]

    def final_accuracy(self) -> float:
        """Validation accuracy at the end of the skewed phase."""
        return self.skew_history.val_accuracy[-1]


def layer_betas(model: Sequential, beta_scale: float) -> Dict[int, float]:
    """Per-layer reference weights :math:`\\beta_i = c\\,\\sigma_i`."""
    betas: Dict[int, float] = {}
    for idx, layer in model.weighted_layers():
        betas[idx] = beta_from_std(layer.params["W"], beta_scale)
    return betas


def skewed_train(
    model: Sequential,
    dataset: Dataset,
    config: Optional[SkewedTrainingConfig] = None,
    pretrained: bool = False,
) -> SkewedTrainingResult:
    """Run the full two-phase skewed training on ``model``.

    With ``pretrained=True`` the first phase is skipped (the model is
    assumed already trained) and only the reference weights are read
    from the existing distribution.
    """
    config = config if config is not None else SkewedTrainingConfig()
    if pretrained:
        pre_history = TrainingHistory()
    else:
        pre_history = train_baseline(model, dataset, config.pretrain)

    betas = layer_betas(model, config.beta_scale)
    regs = {
        idx: SkewedL2Regularizer(beta, config.lambda1, config.lambda2)
        for idx, beta in betas.items()
    }
    model.set_regularizers(regs)
    skew_history = model.fit(
        dataset.x_train,
        dataset.y_train,
        epochs=config.skew_epochs,
        batch_size=SKEW_BATCH_SIZE,
        validation_data=(dataset.x_test, dataset.y_test),
    )
    return SkewedTrainingResult(pre_history, skew_history, betas)


def distribution_skewness(weights: np.ndarray) -> float:
    """Adjusted Fisher–Pearson sample skewness of a weight vector.

    Positive for right-skewed distributions; the paper's skewed training
    should push this up relative to the quasi-normal baseline (whose
    skewness is near zero).
    """
    w = np.asarray(weights, dtype=np.float64).ravel()
    n = w.size
    if n < 3:
        return 0.0
    mean = w.mean()
    std = w.std()
    if std == 0:
        return 0.0
    m3 = np.mean((w - mean) ** 3)
    g1 = m3 / std**3
    return float(np.sqrt(n * (n - 1)) / (n - 2) * g1)
