"""Weight regularizers, including the paper's two-segment skewed penalty.

The DATE 2019 paper replaces standard L2 regularization (its Eq. (2)) with
a two-segment quadratic penalty around a per-layer reference weight
:math:`\\beta_i` (Eq. (8)–(10))::

    Cost  = C(W) + R1(W) + R2(W)
    R1(W) = sum_i lambda1 * ||W_i - beta_i||^2   for W_i <  beta_i
    R2(W) = sum_i lambda2 * ||W_i - beta_i||^2   for W_i >= beta_i

With ``lambda1 > lambda2`` the penalty is steep on the left of ``beta``
and shallow on the right, which *skews* the trained weight distribution:
its mass concentrates slightly above ``beta`` with a long but thin right
tail — exactly the shape of the paper's Fig. 6(a)/Fig. 9.  Small weights
map to small conductances (large resistances), reducing programming
current and therefore aging.

A regularizer exposes ``penalty(w)`` (scalar, already including its
coefficients) and ``gradient(w)`` (same shape as ``w``), applied per
parameter tensor by :class:`repro.nn.model.Sequential`.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError


class Regularizer:
    """Base class for per-tensor weight regularizers."""

    def penalty(self, w: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class L2Regularizer(Regularizer):
    """Classic ridge penalty ``lam * ||W||^2`` (paper Eq. (1)–(2))."""

    def __init__(self, lam: float = 1e-4) -> None:
        if lam < 0:
            raise ConfigurationError(f"lam must be >= 0, got {lam}")
        self.lam = float(lam)

    def penalty(self, w: np.ndarray) -> float:
        return float(self.lam * np.sum(w * w))

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return 2.0 * self.lam * w

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"L2Regularizer(lam={self.lam})"


class SkewedL2Regularizer(Regularizer):
    """Two-segment skewed penalty around a reference weight ``beta``.

    Implements the paper's Eq. (9)–(10).  The reference weight is
    piecewise: weights left of ``beta`` pay ``lambda1 * (w - beta)^2``,
    weights right of ``beta`` pay ``lambda2 * (w - beta)^2``, and
    ``lambda1 > lambda2`` produces the desired right-skewed distribution
    concentrated at small values.

    Parameters
    ----------
    beta:
        Reference weight :math:`\\beta_i`.  The paper sets it to
        ``c * sigma`` where ``sigma`` is the standard deviation of the
        conventionally trained quasi-normal distribution; see
        :func:`beta_from_std` and
        :class:`repro.training.skewed.SkewedTrainingConfig`.
    lambda1:
        Penalty coefficient for weights **below** ``beta`` (the heavy
        side).
    lambda2:
        Penalty coefficient for weights **at or above** ``beta``.
    """

    def __init__(self, beta: float, lambda1: float, lambda2: float) -> None:
        if lambda1 < 0 or lambda2 < 0:
            raise ConfigurationError(
                f"penalties must be >= 0, got lambda1={lambda1}, lambda2={lambda2}"
            )
        if lambda1 < lambda2:
            raise ConfigurationError(
                "skewed regularizer expects lambda1 >= lambda2 "
                f"(heavy penalty on the left of beta); got {lambda1} < {lambda2}"
            )
        self.beta = float(beta)
        self.lambda1 = float(lambda1)
        self.lambda2 = float(lambda2)

    def _coeffs(self, w: np.ndarray) -> np.ndarray:
        return np.where(w < self.beta, self.lambda1, self.lambda2)

    def penalty(self, w: np.ndarray) -> float:
        d = w - self.beta
        return float(np.sum(self._coeffs(w) * d * d))

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return 2.0 * self._coeffs(w) * (w - self.beta)

    def penalty_profile(self, w_values: np.ndarray) -> np.ndarray:
        """Pointwise penalty for each scalar in ``w_values``.

        Used by the Fig. 7 benchmark to plot the two dashed penalty
        curves against the trained weight distribution.
        """
        w_values = np.asarray(w_values, dtype=np.float64)
        d = w_values - self.beta
        return self._coeffs(w_values) * d * d

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SkewedL2Regularizer(beta={self.beta}, "
            f"lambda1={self.lambda1}, lambda2={self.lambda2})"
        )


def beta_from_std(weights: np.ndarray, scale: float) -> float:
    """Paper's reference-weight rule: ``beta = scale * std(weights)``.

    Section V: *"the mean value of the quasi-normal distribution is close
    to zero so that the reference weights were set to the standard
    deviation sigma_i multiplied by a constant value."*
    """
    return float(scale * np.std(np.asarray(weights, dtype=np.float64)))
