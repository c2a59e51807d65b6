"""First-order optimizers.

An optimizer holds per-parameter state keyed by ``id`` of the parameter
array (arrays are updated in place, so identity is stable for the life of
a model).  ``update(param, grad)`` applies one step.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.exceptions import ConfigurationError


class Optimizer:
    """Base class with learning-rate storage and state bookkeeping."""

    def __init__(self, lr: float = 0.01) -> None:
        if lr <= 0:
            raise ConfigurationError(f"learning rate must be > 0, got {lr}")
        self.lr = float(lr)
        self._state: Dict[int, dict] = {}
        self.iterations = 0

    def __getstate__(self) -> dict:
        # Copies' arrays have new ids, so ``_state`` could only go stale.
        return {**self.__dict__, "_state": {}}

    def state_for(self, param: np.ndarray) -> dict:
        """Per-parameter state dict (created on first access)."""
        return self._state.setdefault(id(param), {})

    def update(self, param: np.ndarray, grad: np.ndarray) -> None:
        raise NotImplementedError

    def begin_step(self) -> None:
        """Called once per optimization step, before parameter updates."""
        self.iterations += 1

    def reset(self) -> None:
        """Drop all accumulated state (e.g. between training phases)."""
        self._state.clear()
        self.iterations = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(lr={self.lr})"


class SGD(Optimizer):
    """Vanilla stochastic gradient descent."""

    def update(self, param: np.ndarray, grad: np.ndarray) -> None:
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

    def update(self, param: np.ndarray, grad: np.ndarray) -> None:
        state = self.state_for(param)
        if "m" not in state:
            state["m"] = np.zeros_like(param)
            state["v"] = np.zeros_like(param)
        m, v = state["m"], state["v"]
        t = max(1, self.iterations)
        # In place over two scratch arrays; a product's operands may swap.
        m *= self.beta1
        m += (step := grad * (1.0 - self.beta1))
        v *= self.beta2
        v += np.multiply(np.multiply(grad, 1.0 - self.beta2, out=step), grad, out=step)
        denom = v / (1.0 - self.beta2**t)
        denom = np.add(np.sqrt(denom, out=denom), self.eps, out=denom)
        m_hat = np.divide(m, 1.0 - self.beta1**t, out=step)
        param -= np.divide(np.multiply(m_hat, self.lr, out=m_hat), denom, out=m_hat)
