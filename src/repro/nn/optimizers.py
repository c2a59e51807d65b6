"""First-order optimizers.

``step(pairs)`` applies one optimization step to every ``(param, grad)``
pair of a model, updating the parameter arrays in place.  Adam keeps its
moments as two flat vectors over the concatenated parameters, so a step
is one pass of each elementwise operation over all of them rather than
one small pass per array; the operations are elementwise, so each
parameter rounds as a step of its own would.  The moments belong to the
parameter list (keyed by the ``id`` of each array, stable for the life
of a model); a step over another list starts them afresh.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError

#: One model's parameters with their gradients, in a fixed order.
Pairs = Sequence[Tuple[np.ndarray, np.ndarray]]


class Optimizer:
    """Base class with learning-rate storage and state bookkeeping."""

    def __init__(self, lr: float = 0.01) -> None:
        if lr <= 0:
            raise ConfigurationError(f"learning rate must be > 0, got {lr}")
        self.lr = float(lr)
        self._state: dict = {}
        self.iterations = 0

    def __getstate__(self) -> dict:
        # Copies' arrays have new ids, so ``_state`` could only go stale.
        return {**self.__dict__, "_state": {}}

    def step(self, pairs: Pairs) -> None:
        """One optimization step over every ``(param, grad)`` pair."""
        raise NotImplementedError

    def reset(self) -> None:
        """Drop all accumulated state (e.g. between training phases)."""
        self._state.clear()
        self.iterations = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(lr={self.lr})"


class SGD(Optimizer):
    """Vanilla stochastic gradient descent."""

    def step(self, pairs: Pairs) -> None:
        self.iterations += 1
        for param, grad in pairs:
            param -= self.lr * grad


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba, 2015)."""

    def __init__(
        self,
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(lr)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ConfigurationError(
                f"betas must be in [0, 1), got beta1={beta1}, beta2={beta2}"
            )
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)

    def step(self, pairs: Pairs) -> None:
        self.iterations += 1
        params = [param for param, _ in pairs]
        grad = np.concatenate([g.ravel() for _, g in pairs])
        keys = tuple(map(id, params))
        if self._state.get("keys") != keys:
            zeros = np.zeros_like(grad)
            self._state = {"keys": keys, "m": zeros, "v": zeros.copy()}
        m, v, t = self._state["m"], self._state["v"], self.iterations
        # In place over two scratch arrays; a product's operands may swap.
        m *= self.beta1
        m += (upd := grad * (1.0 - self.beta1))
        v *= self.beta2
        v += np.multiply(np.multiply(grad, 1.0 - self.beta2, out=upd), grad, out=upd)
        denom = v / (1.0 - self.beta2**t)
        denom = np.add(np.sqrt(denom, out=denom), self.eps, out=denom)
        m_hat = np.divide(m, 1.0 - self.beta1**t, out=upd)
        np.divide(np.multiply(m_hat, self.lr, out=m_hat), denom, out=upd)
        start = 0
        for param in params:
            param -= upd[start : start + param.size].reshape(param.shape)
            start += param.size
