"""Layer base classes.

A :class:`Layer` transforms a batch array in :meth:`forward` and pushes
gradients back in :meth:`backward`.  Layers cache whatever they need for
the backward pass on ``self`` during ``forward``; the model guarantees
the calls alternate (forward then backward on the same batch).

Those caches are derived state: each class names them in
``_transient``, and pickles and copies of a layer carry them as ``None``.

A :class:`ParamLayer` additionally owns named parameter tensors (in
``self.params``) with matching gradient slots (``self.grads``) filled by
``backward``.  The model applies regularizers only to tensors whose name
is listed in ``self.regularized`` — weights, not biases, matching the
paper's cost function which penalizes the layer weight matrices
:math:`W_i`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ShapeError
from repro.rng import SeedLike


class Layer:
    """Base class for all layers.

    ``_transient`` names the attributes :meth:`forward` fills for
    :meth:`backward`.  Every pickle, ``copy.deepcopy`` and ``copy.copy``
    sets them to ``None`` and keeps the rest (parameters, gradients, RNG
    state, running statistics), so a copied layer must run ``forward``
    before ``backward``.
    """

    _transient: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.built = False
        #: Shape of a single input sample (no batch dim), set by build().
        self.input_shape: Optional[Tuple[int, ...]] = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in self._transient:
            state[name] = None
        return state

    # -- construction --------------------------------------------------
    def build(self, input_shape: Tuple[int, ...], rng: SeedLike = None) -> Tuple[int, ...]:
        """Allocate parameters for ``input_shape`` and return the output shape.

        ``input_shape`` excludes the batch dimension.  Idempotent: a
        second call with the same shape is a no-op (parameters are not
        drawn again); a call with another shape raises ``ShapeError``.
        """
        shape = tuple(int(s) for s in input_shape)
        if self.built and shape != self.input_shape:
            raise ShapeError(
                f"{type(self).__name__} was built for input {self.input_shape}, not {shape}"
            )
        self.input_shape = shape
        self.built = True
        return self.output_shape()

    def output_shape(self) -> Tuple[int, ...]:
        """Shape of a single output sample; valid after :meth:`build`."""
        assert self.input_shape is not None, "layer not built"
        return self.input_shape

    # -- compute --------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def unfold(self, x: np.ndarray) -> np.ndarray:
        """``x`` in the form :meth:`forward` takes cheapest, for an input
        reused over many passes (``Conv2D``: its im2col matrix)."""
        return x

    def param_grads(self, grad: np.ndarray) -> None:
        """``backward`` without the input gradient (which no model reads)."""
        self.backward(grad)

    # -- parameters ------------------------------------------------------
    @property
    def params(self) -> Dict[str, np.ndarray]:
        """Named parameter tensors (empty for parameter-free layers)."""
        return {}

    @property
    def grads(self) -> Dict[str, np.ndarray]:
        """Named gradient tensors matching :attr:`params`."""
        return {}

    @property
    def regularized(self) -> List[str]:
        """Names of parameters the model's regularizer applies to."""
        return []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class ParamLayer(Layer):
    """Layer with named parameters stored in dicts."""

    def __init__(self) -> None:
        super().__init__()
        self._params: Dict[str, np.ndarray] = {}
        self._grads: Dict[str, np.ndarray] = {}
        self._regularized: List[str] = []

    @property
    def params(self) -> Dict[str, np.ndarray]:
        return self._params

    @property
    def grads(self) -> Dict[str, np.ndarray]:
        return self._grads

    @property
    def regularized(self) -> List[str]:
        return self._regularized

    def add_param(self, name: str, value: np.ndarray, regularize: bool = False) -> None:
        """Install parameter ``name`` with initial ``value`` and its zero
        gradient slot."""
        value = np.asarray(value, dtype=np.float64)
        self._params[name] = value
        self._grads[name] = np.zeros_like(value)
        if regularize:
            self._regularized.append(name)
