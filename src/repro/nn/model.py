"""Sequential model: the training loop of the NN substrate.

The model composes layers, a loss, an optimizer and (optionally) one
regularizer per weighted layer.  Per-layer regularizers matter here: the
paper's skewed training picks a reference weight :math:`\\beta_i` *per
layer* from that layer's weight statistics (its Table II), so
:meth:`Sequential.set_regularizers` accepts either one regularizer for
all layers or a mapping ``{layer_index: Regularizer}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.layers.base import Layer
from repro.nn.losses import Loss, SoftmaxCrossEntropy
from repro.nn.metrics import accuracy
from repro.nn.optimizers import SGD, Optimizer
from repro.nn.regularizers import Regularizer
from repro.rng import SeedLike, ensure_rng

RegularizerSpec = Union[Regularizer, Dict[int, Regularizer], None]


@dataclass
class TrainingHistory:
    """Per-epoch training curves collected by :meth:`Sequential.fit`.

    ``loss`` and ``accuracy`` are running minibatch values, each batch
    scored by its own step's forward at the weights before the update;
    ``val_*`` are :meth:`Sequential.evaluate` results after the epoch.
    """

    loss: List[float] = field(default_factory=list)
    accuracy: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    val_accuracy: List[float] = field(default_factory=list)


class Sequential:
    """A linear stack of layers trained with minibatch gradient descent."""

    def __init__(
        self,
        layers: Sequence[Layer],
        loss: Optional[Loss] = None,
        optimizer: Optional[Optimizer] = None,
        seed: SeedLike = None,
    ) -> None:
        if not layers:
            raise ConfigurationError("Sequential needs at least one layer")
        self.layers: List[Layer] = list(layers)
        self.loss = loss if loss is not None else SoftmaxCrossEntropy()
        self.optimizer = optimizer if optimizer is not None else SGD(0.01)
        self._rng = ensure_rng(seed)
        self._regularizers: Dict[int, Regularizer] = {}
        self.built = False
        self.input_shape: Optional[Tuple[int, ...]] = None

    # -- construction ----------------------------------------------------
    def build(self, input_shape: Sequence[int]) -> "Sequential":
        """Allocate all layer parameters for samples of ``input_shape``."""
        shape = tuple(int(s) for s in input_shape)
        self.input_shape = shape
        for layer in self.layers:
            shape = layer.build(shape, self._rng)
        self.built = True
        return self

    def set_regularizers(self, spec: RegularizerSpec) -> None:
        """Install weight regularizers.

        ``spec`` may be a single :class:`Regularizer` (applied to every
        weighted layer), a dict ``{layer_index: Regularizer}``, or
        ``None`` to clear.
        """
        self._regularizers = {}
        if spec is None:
            return
        if isinstance(spec, Regularizer):
            for idx, _layer in self.weighted_layers():
                self._regularizers[idx] = spec
            return
        for idx, reg in spec.items():
            if not 0 <= idx < len(self.layers):
                raise ConfigurationError(f"regularizer index {idx} out of range")
            if not self.layers[idx].regularized:
                raise ConfigurationError(
                    f"layer {idx} ({self.layers[idx]!r}) has no regularizable weights"
                )
            self._regularizers[idx] = reg

    def regularizer_for(self, layer_index: int) -> Optional[Regularizer]:
        """The regularizer installed on ``layer_index``, if any."""
        return self._regularizers.get(layer_index)

    # -- inspection --------------------------------------------------------
    def weighted_layers(self) -> List[Tuple[int, Layer]]:
        """``(index, layer)`` for every layer with regularizable weights.

        These are exactly the layers whose weight matrices are mapped to
        memristor crossbars.
        """
        return [(i, l) for i, l in enumerate(self.layers) if l.regularized]

    # -- forward/backward ---------------------------------------------------
    def forward(
        self,
        x: np.ndarray,
        training: bool = False,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> np.ndarray:
        """Run ``layers[start:stop]`` on ``x`` (the whole stack by default).

        A slice lets callers that vary only layer ``L`` compute the
        input of ``L`` once (``stop=L``) and replay just the suffix
        (``start=L``) per variant.
        """
        self._require_built()
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers[start:stop]:
            out = layer.forward(out, training=training)
        return out

    def backward(self, grad: np.ndarray) -> None:
        """Fill every ``layer.grads``; the input gradient is not computed."""
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        self.layers[0].param_grads(grad)

    def regularization_penalty(self) -> float:
        """Total regularization cost over all weighted layers."""
        total = 0.0
        for idx, layer in self.weighted_layers():
            reg = self._regularizers.get(idx)
            if reg is None:
                continue
            for name in layer.regularized:
                total += reg.penalty(layer.params[name])
        return total

    def _apply_regularizer_grads(self) -> None:
        for idx, layer in self.weighted_layers():
            reg = self._regularizers.get(idx)
            if reg is None:
                continue
            for name in layer.regularized:
                layer.grads[name] += reg.gradient(layer.params[name])

    def compute_gradients(self, x: np.ndarray, y: np.ndarray) -> float:
        """One forward+backward pass; fills every ``layer.grads``.

        Returns the total cost (data loss + regularization).  Does *not*
        update parameters — used by gradient checking and by the online
        tuning engine, which needs gradient *signs* only (Eq. (5)).
        """
        return self._gradients(x, y)[0]

    def _gradients(self, x: np.ndarray, y: np.ndarray) -> Tuple[float, np.ndarray]:
        """:meth:`compute_gradients`, also returning the batch's logits."""
        pred = self.forward(x, training=True)
        data_loss = self.loss.value(pred, y)
        self.backward(self.loss.gradient(pred, y))
        self._apply_regularizer_grads()
        return data_loss + self.regularization_penalty(), pred

    def train_batch(self, x: np.ndarray, y: np.ndarray) -> float:
        """One optimizer step on a minibatch; returns the total cost."""
        return self._train_step(x, y)[0]

    def _train_step(self, x: np.ndarray, y: np.ndarray) -> Tuple[float, np.ndarray]:
        """:meth:`train_batch`, also returning the pre-update logits."""
        cost, pred = self._gradients(x, y)
        self.optimizer.begin_step()
        for layer in self.layers:
            for name, param in layer.params.items():
                self.optimizer.update(param, layer.grads[name])
        return cost, pred

    # -- high-level API ----------------------------------------------------
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 10,
        batch_size: int = 32,
        validation_data: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        shuffle: bool = True,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Minibatch training loop; returns per-epoch history."""
        self._require_built()
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if len(x) != len(y):
            raise ShapeError(f"x has {len(x)} samples but y has {len(y)}")
        if len(x) == 0:
            raise ShapeError("fit needs at least one sample")
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        history = TrainingHistory()
        n = len(x)
        for epoch in range(epochs):
            order = self._rng.permutation(n) if shuffle else np.arange(n)
            epoch_cost = 0.0
            n_batches = 0
            correct = 0
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                cost, pred = self._train_step(x[idx], y[idx])
                epoch_cost += cost
                correct += int(np.count_nonzero(pred.argmax(1) == y[idx].argmax(1)))
                n_batches += 1
            history.loss.append(epoch_cost / n_batches)
            history.accuracy.append(correct / n)
            if validation_data is not None:
                vx, vy = validation_data
                val_loss, val_acc = self.evaluate(vx, vy)
                history.val_loss.append(val_loss)
                history.val_accuracy.append(val_acc)
            if verbose:  # pragma: no cover - console output
                msg = (
                    f"epoch {epoch + 1}/{epochs} loss={history.loss[-1]:.4f} "
                    f"running_acc={history.accuracy[-1]:.4f}"
                )
                if validation_data is not None:
                    msg += f" val_acc={history.val_accuracy[-1]:.4f}"
                print(msg)
        return history

    def predict(
        self,
        x: np.ndarray,
        batch_size: int = 256,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> np.ndarray:
        """Model outputs (logits) for ``x``, computed in batches.

        ``start``/``stop`` select a layer slice as in :meth:`forward`.
        Chunks always begin at multiples of ``batch_size``, so a prefix
        ``predict(x, stop=L)`` fed to ``predict(..., start=L)`` runs
        every layer on exactly the batches a full ``predict(x)`` would.
        """
        x = np.asarray(x, dtype=np.float64)
        # An empty ``x`` still runs one (empty) chunk, for the output shape.
        outputs = [
            self.forward(x[i : i + batch_size], training=False, start=start, stop=stop)
            for i in range(0, max(len(x), 1), batch_size)
        ]
        return np.concatenate(outputs, axis=0)

    def evaluate(
        self, x: np.ndarray, y: np.ndarray, batch_size: int = 256
    ) -> Tuple[float, float]:
        """``(data_loss, accuracy)`` on a labelled set."""
        pred = self.predict(x, batch_size=batch_size)
        y = np.asarray(y, dtype=np.float64)
        return self.loss.value(pred, y), accuracy(pred, y)

    def score(self, x: np.ndarray, y: np.ndarray, batch_size: int = 256) -> float:
        """Classification accuracy on a labelled set."""
        return self.evaluate(x, y, batch_size=batch_size)[1]

    # -- weight snapshots -----------------------------------------------------
    def get_weights(self) -> List[Dict[str, np.ndarray]]:
        """Copy of every layer's parameters (list indexed like layers)."""
        return [{k: v.copy() for k, v in layer.params.items()} for layer in self.layers]

    def set_weights(self, weights: List[Dict[str, np.ndarray]]) -> None:
        """Restore parameters from a :meth:`get_weights` snapshot."""
        if len(weights) != len(self.layers):
            raise ShapeError(
                f"snapshot has {len(weights)} layers, model has {len(self.layers)}"
            )
        for layer, snap in zip(self.layers, weights):
            for name, value in snap.items():
                layer.params[name][...] = value

    def all_weight_values(self) -> np.ndarray:
        """All regularizable weights concatenated into one flat vector.

        Used by distribution analyses (Fig. 3/6/9) and by the
        ``beta = c * sigma`` rule.
        """
        chunks = [
            layer.params[name].ravel()
            for _idx, layer in self.weighted_layers()
            for name in layer.regularized
        ]
        return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.float64)

    def _require_built(self) -> None:
        if not self.built:
            raise ConfigurationError("model is not built; call build(input_shape) first")
