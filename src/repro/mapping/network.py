"""Mapping a trained network onto simulated crossbar hardware.

:class:`MappedNetwork` owns one :class:`~repro.crossbar.tiling.TiledMatrix`
per weighted layer of a trained :class:`~repro.nn.model.Sequential`:

* **Dense** layers map their ``(in, out)`` weight matrix directly — one
  device per weight, one column per output neuron (Fig. 1).
* **Conv2D** layers map their unrolled ``(in_ch*kh*kw, filters)`` matrix
  — the im2col arrangement the forward pass already uses, so one device
  column per filter.

Biases (and batch-norm parameters) stay in the digital domain, the
standard assumption for memristor accelerators.

Inference against hardware works by *weight reconstruction*: the
programmed conductances are read (with read noise), inverted through the
layer's Eq. (4) mapping into effective weights, and installed into a
scratch software clone whose forward pass is mathematically identical to
the analog ``V_O = V_I · G · R`` pipeline up to the affine calibration
the TIA/reference columns implement in real arrays.  This is the same
modelling choice analog-AI simulators such as IBM's aihwkit make, and it
lets the full test set run at numpy GEMM speed while every nonideality
(quantization, aging clipping, write/read noise, drift, dead devices)
still enters through the *device* arrays.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.profiling import PROFILER
from repro.crossbar.tiling import TiledMatrix
from repro.crossbar.tracer import BlockTracer
from repro.device.config import DeviceConfig
from repro.exceptions import ConfigurationError, ShapeError
from repro.mapping.fresh import FreshMapper
from repro.mapping.linear import LinearWeightMapping
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.dense import Dense
from repro.nn.metrics import accuracy
from repro.nn.model import Sequential
from repro.rng import SeedLike, ensure_rng, spawn_rng


def clone_model(model: Sequential) -> Sequential:
    """Structural deep copy of a model (weights included, state reset).

    Parameters, gradients, RNG state, running statistics and optimizer
    settings (not its moments) are copied; every layer's forward-pass
    caches (its ``_transient`` attributes) are reset to ``None``, so the
    clone holds no batch of the original's.
    """
    return copy.deepcopy(model)


def _layer_matrix(layer) -> np.ndarray:
    """Weighted layer's kernel as a 2-D ``(rows, cols)`` device matrix."""
    w = layer.params["W"]
    if isinstance(layer, Dense):
        return w.copy()
    if isinstance(layer, Conv2D):
        return w.reshape(w.shape[0], -1).T.copy()
    raise ConfigurationError(f"layer {layer!r} cannot be mapped to a crossbar")


def _matrix_to_kernel(matrix: np.ndarray, layer) -> np.ndarray:
    """Inverse of :func:`_layer_matrix`."""
    if isinstance(layer, Dense):
        return matrix
    if isinstance(layer, Conv2D):
        return matrix.T.reshape(layer.params["W"].shape)
    raise ConfigurationError(f"layer {layer!r} cannot be mapped to a crossbar")


class MappedLayer:
    """One weighted layer's presence on hardware."""

    def __init__(
        self,
        layer_index: int,
        layer,
        device_config: DeviceConfig,
        tile_rows: int,
        tile_cols: int,
        r_tia: float,
        trace_block: int,
        seed: SeedLike = None,
    ) -> None:
        self.layer_index = int(layer_index)
        self.layer = layer
        self.device_config = device_config
        self.kind = "conv" if isinstance(layer, Conv2D) else "dense"
        matrix = _layer_matrix(layer)
        self.matrix_shape: Tuple[int, int] = matrix.shape
        rng = ensure_rng(seed)
        self.tiles = TiledMatrix(
            matrix.shape[0],
            matrix.shape[1],
            tile_rows=tile_rows,
            tile_cols=tile_cols,
            config=device_config,
            r_tia=r_tia,
            seed=rng,
        )
        self.tracers = [
            BlockTracer(tile, trace_block) for _rs, _cs, tile in self.tiles.iter_tiles()
        ]
        #: Mapping used at the most recent programming; set by set_range.
        self.mapping: Optional[LinearWeightMapping] = None
        #: Monotonic count of :meth:`set_range` calls: the one change
        #: to what a read returns that writes no device.  With the
        #: tiles' ``state_version`` it keys the network's read memo
        #: (DESIGN.md §11).
        self.version = 0
        self._grid = device_config.make_level_grid()

    # -- software side -----------------------------------------------------
    def software_matrix(self) -> np.ndarray:
        """Current trained weights as the 2-D device matrix."""
        return _layer_matrix(self.layer)

    def traced_upper_bounds(self) -> np.ndarray:
        """Aged upper bounds of all traced devices across tiles."""
        if not self.tracers:
            return np.empty(0, dtype=np.float64)
        return np.concatenate([t.traced_upper_bounds() for t in self.tracers])

    def estimated_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Tracer-estimated per-device aged windows over the full matrix."""
        lo = np.empty(self.matrix_shape, dtype=np.float64)
        hi = np.empty(self.matrix_shape, dtype=np.float64)
        for (rs, cs, _tile), tracer in zip(self.tiles.iter_tiles(), self.tracers):
            tlo, thi = tracer.estimated_bounds()
            lo[rs, cs], hi[rs, cs] = tlo, thi
        return lo, hi

    # -- range + programming ------------------------------------------------
    def set_range(self, r_lo: float, r_hi: float) -> LinearWeightMapping:
        """Fix the common resistance range and derive the Eq. (4) mapping."""
        if r_hi <= r_lo:
            raise ConfigurationError(f"invalid common range [{r_lo}, {r_hi}]")
        self.mapping = LinearWeightMapping.from_resistance_range(
            self.software_matrix(), r_lo, r_hi
        )
        self.version += 1
        return self.mapping

    def predicted_matrix(self, r_lo: float, r_hi: float) -> np.ndarray:
        """Predict the effective weight matrix for a hypothetical range.

        Uses the *traced* window estimates (not ground truth) — this is
        the information the aging-aware controller actually has.
        """
        mapping = LinearWeightMapping.from_resistance_range(
            self.software_matrix(), r_lo, r_hi
        )
        est_lo, est_hi = self.estimated_bounds()
        targets = np.asarray(mapping.weight_to_resistance(self.software_matrix()))
        achieved = self._grid.quantize(targets, est_lo, est_hi)
        return np.asarray(mapping.resistance_to_weight(achieved))

    def program(self) -> None:
        """Program the software weights into the tiles (ages devices).

        The whole layer is programmed through the batched
        :meth:`~repro.crossbar.tiling.TiledMatrix.program_targets` entry
        point (no logical result assembly) and the pulse count is
        recorded under the ``programming.batched`` perf counter.
        """
        if self.mapping is None:
            raise ConfigurationError("set_range must be called before program")
        targets = np.asarray(self.mapping.weight_to_resistance(self.software_matrix()))
        applied = self.tiles.program_targets(targets)
        PROFILER.increment("programming.batched", applied)

    # -- hardware side -------------------------------------------------------
    def hardware_matrix(self) -> np.ndarray:
        """Effective weight matrix read back from the devices.

        Every call reads the tiles afresh; reuse between writes is
        decided one level up, by :meth:`MappedNetwork.effective_model`.
        """
        if self.mapping is None:
            raise ConfigurationError("layer has never been programmed")
        PROFILER.increment("network.hardware_reads")
        g = self.tiles.read_conductances()
        return np.asarray(self.mapping.conductance_to_weight(g))

    def apply_gradient_signs(
        self, weight_grad: np.ndarray, threshold: float, step_fraction: float = 0.5
    ) -> int:
        """One Eq. (5) tuning sweep from a weight-gradient matrix.

        ``weight_grad`` is dCost/dW in the 2-D device arrangement.  To
        *reduce* cost a weight must move against its gradient; since
        conductance increases affinely with weight, the conductance
        pulse polarity is ``-sign(dCost/dW)``.  Only devices with
        ``|grad| >= threshold * max|grad|`` of their layer receive a
        pulse (the constant-amplitude driver does not pulse negligible
        gradients).  Returns the number of pulsed devices.
        """
        if weight_grad.shape != self.matrix_shape:
            raise ShapeError(
                f"grad shape {weight_grad.shape} != device matrix {self.matrix_shape}"
            )
        scale = float(np.max(np.abs(weight_grad)))
        if scale == 0.0:
            return 0
        directions = (-np.sign(weight_grad)).astype(np.int64)
        directions[np.abs(weight_grad) < threshold * scale] = 0
        # mask == (polarity != 0) by construction, so this is
        # bit-identical to a step_conductance sweep (same draws, same
        # arithmetic).
        self.tiles.program_pulses(directions != 0, directions, fraction=step_fraction)
        return int(np.count_nonzero(directions))

    def dead_device_mask(self) -> np.ndarray:
        """Dead devices in the layer's matrix arrangement.

        The mask lines up with gradient/weight matrices so tuning can
        mask pulses to devices that cannot respond.
        """
        return self.tiles.dead_mask()

    def mean_aged_upper_bound(self) -> float:
        """Average aged ``R_max`` over all devices (Fig. 11 metric)."""
        _lo, hi = self.tiles.aged_bounds()
        return float(np.mean(hi))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MappedLayer(index={self.layer_index}, kind={self.kind}, "
            f"matrix={self.matrix_shape})"
        )


class MappedNetwork:
    """A trained model together with its crossbar incarnation."""

    def __init__(
        self,
        model: Sequential,
        device_config: Optional[DeviceConfig] = None,
        tile_rows: int = 128,
        tile_cols: int = 128,
        r_tia: float = 1e3,
        trace_block: int = 3,
        seed: SeedLike = None,
    ) -> None:
        if not model.built:
            raise ConfigurationError("model must be built before mapping")
        self.model = model
        self.device_config = device_config if device_config is not None else DeviceConfig()
        rng = ensure_rng(seed)
        self.layers: List[MappedLayer] = [
            MappedLayer(
                idx,
                layer,
                self.device_config,
                tile_rows,
                tile_cols,
                r_tia,
                trace_block,
                seed=spawn_rng(rng, f"layer{idx}"),
            )
            for idx, layer in model.weighted_layers()
        ]
        self._scratch = clone_model(model)
        # The scratch model exists to evaluate/tune *hardware* weights;
        # software-training regularizers must not leak into the tuning
        # gradients (the paper's online tuning minimizes the plain cost
        # on the mapped network).
        self._scratch.set_regularizers(None)
        #: Read-memo key of the hardware weights the scratch model holds
        #: (DESIGN.md §11); ``None`` when it holds anything else.
        self._scratch_holds: Optional[Tuple[Tuple[int, int], ...]] = None

    # -- mapping --------------------------------------------------------
    def map_network(
        self,
        policy=None,
        selection_data: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        """Map every weighted layer to hardware under ``policy``.

        ``policy`` is a :class:`~repro.mapping.fresh.FreshMapper`
        (default) or :class:`~repro.mapping.aging_aware.AgingAwareMapper`.
        For the aging-aware policy, ``selection_data`` supplies the
        batch on which candidate common ranges are scored; layers are
        processed in order and each candidate is scored with
        already-selected layers at their predicted weights.

        Candidates for layer ``L`` differ only in layer ``L``, so the
        selection batch's activations at the input of ``L`` are computed
        once per layer and each candidate replays only ``layers[L:]``.
        Both halves chunk the batch at the same boundaries as a full
        :meth:`~repro.nn.model.Sequential.predict`, so every score is
        bit-identical to :meth:`_accuracy_with_matrices` on the trial.
        """
        policy = policy if policy is not None else FreshMapper()
        predicted: Dict[int, np.ndarray] = {}
        for mapped in self.layers:
            if hasattr(policy, "candidate_uppers") and selection_data is not None:
                x_sel, y_sel = selection_data
                n = min(len(x_sel), getattr(policy, "selection_batch", 128))
                start = mapped.layer_index
                prefix = self._install_matrices(predicted).predict(x_sel[:n], stop=start)
                y_batch = np.asarray(y_sel[:n], dtype=np.float64)

                def score(r_lo: float, r_hi: float, mapped=mapped) -> float:
                    trial = dict(predicted)
                    trial[mapped.layer_index] = mapped.predicted_matrix(r_lo, r_hi)
                    model = self._install_matrices(trial)
                    return accuracy(model.predict(prefix, start=start), y_batch)

                r_lo, r_hi = policy.select_range(mapped, score)
            elif hasattr(policy, "candidate_uppers"):
                r_lo, r_hi = policy.select_range(mapped, None)
            else:
                r_lo, r_hi = policy.select_range(mapped)
            mapped.set_range(r_lo, r_hi)
            predicted[mapped.layer_index] = mapped.predicted_matrix(r_lo, r_hi)
        for mapped in self.layers:
            mapped.program()

    # -- hardware inference -----------------------------------------------
    def _reads_deterministic(self) -> bool:
        """True when hardware reads are noise-free (hence memoizable).

        Noisy reads draw from the per-tile RNG streams; caching them
        would both change values and desynchronize the streams, so any
        read noise (global or per-tile fault-injected) disables reuse.
        """
        if self.device_config.read_noise > 0:
            return False
        for mapped in self.layers:
            for _rs, _cs, tile in mapped.tiles.iter_tiles():
                if tile.read_noise_extra > 0:
                    return False
        return True

    def _install_matrices(self, matrices: Dict[int, np.ndarray]) -> Sequential:
        """Scratch model with given device matrices, software elsewhere."""
        # Installing arbitrary matrices (e.g. candidate-scoring trials)
        # invalidates any memoized hardware state in the scratch model.
        self._scratch_holds = None
        for scratch, layer in zip(self._scratch.layers, self.model.layers):
            for name, value in layer.params.items():
                scratch.params[name][...] = value
        for mapped in self.layers:
            if mapped.layer_index in matrices:
                kernel = _matrix_to_kernel(matrices[mapped.layer_index], mapped.layer)
                self._scratch.layers[mapped.layer_index].params["W"][...] = kernel
        return self._scratch

    def _accuracy_with_matrices(
        self, matrices: Dict[int, np.ndarray], x: np.ndarray, y: np.ndarray
    ) -> float:
        return self._install_matrices(matrices).score(x, y)

    def effective_model(self) -> Sequential:
        """Scratch model carrying the current *hardware* weights.

        Valid until the next call that mutates the scratch model; copy
        it (``clone_model``) to keep a snapshot.

        This is the one place that decides whether a hardware read can
        be reused (DESIGN.md §11).  With noise-free reads the assembled
        scratch model is memoized against every layer's
        ``(tiles.state_version, version)``: repeated calls between
        device writes and range changes (gradient evaluation followed by
        accuracy scoring, say) skip the read → invert → install rebuild
        entirely.  The software model's
        parameters are not part of the key; they never change once the
        network is mapped.
        """
        memoizable = self._reads_deterministic()
        if memoizable:
            key = tuple((m.tiles.state_version, m.version) for m in self.layers)
            if self._scratch_holds == key:
                PROFILER.increment("network.effective_model_reuse")
                return self._scratch
        matrices = {m.layer_index: m.hardware_matrix() for m in self.layers}
        model = self._install_matrices(matrices)
        if memoizable:
            self._scratch_holds = key
        return model

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> Tuple[float, float]:
        """``(loss, accuracy)`` of the hardware-mapped network."""
        return self.effective_model().evaluate(x, y)

    def score(self, x: np.ndarray, y: np.ndarray) -> float:
        """Hardware classification accuracy."""
        return self.evaluate(x, y)[1]

    # -- tuning support ---------------------------------------------------------
    def gradient_sign_matrices(
        self, x: np.ndarray, y: np.ndarray
    ) -> Dict[int, np.ndarray]:
        """dCost/dW per mapped layer, evaluated at the *hardware* weights.

        The online tuning controller computes derivatives in software
        (the paper's simplified scheme keeps only their signs, Eq. (5));
        the full-precision gradient is returned here and thresholding
        happens in :meth:`MappedLayer.apply_gradient_signs`.
        """
        scratch = self.effective_model()
        pred = scratch.forward(np.asarray(x, dtype=np.float64), training=False)
        scratch.backward(scratch.loss.gradient(pred, np.asarray(y, dtype=np.float64)))
        out: Dict[int, np.ndarray] = {}
        for mapped in self.layers:
            grad_kernel = scratch.layers[mapped.layer_index].grads["W"]
            out[mapped.layer_index] = (
                grad_kernel.copy()
                if mapped.kind == "dense"
                else grad_kernel.reshape(grad_kernel.shape[0], -1).T.copy()
            )
        return out

    def apply_tuning_sweep(
        self,
        grads: Dict[int, np.ndarray],
        threshold: float,
        step_fraction: float,
        mask_dead: bool = False,
    ) -> int:
        """One whole-network Eq. (5) sweep from per-layer gradients.

        The network-level entry point of the batched tuning path:
        per-layer dead masking, sign/threshold decisions, and pulse
        application (``program_pulses`` per tile) all run as array ops.
        Returns the number of above-threshold devices summed over
        layers.
        """
        pulsed = 0
        for mapped in self.layers:
            grad = grads[mapped.layer_index]
            if mask_dead:
                dead = mapped.dead_device_mask()
                if dead.any():
                    grad = np.where(dead, 0.0, grad)
            pulsed += mapped.apply_gradient_signs(grad, threshold, step_fraction)
        return pulsed

    # -- aging bookkeeping ---------------------------------------------------
    def total_pulses(self) -> int:
        """Programming pulses applied across all layers since creation."""
        return sum(m.tiles.pulse_totals() for m in self.layers)

    def dead_fraction(self) -> float:
        """Fraction of dead devices over the whole network."""
        total = sum(m.matrix_shape[0] * m.matrix_shape[1] for m in self.layers)
        dead = sum(
            m.tiles.dead_fraction() * m.matrix_shape[0] * m.matrix_shape[1]
            for m in self.layers
        )
        return float(dead / total) if total else 0.0

    def apply_drift(self, magnitude: float) -> None:
        """Read-disturb drift on every layer (between tuning windows)."""
        for mapped in self.layers:
            mapped.tiles.apply_drift(magnitude)

    def aging_by_layer(self) -> Dict[int, float]:
        """Mean aged upper bound per mapped layer (Fig. 11 series)."""
        return {m.layer_index: m.mean_aged_upper_bound() for m in self.layers}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MappedNetwork(layers={len(self.layers)}, pulses={self.total_pulses()})"
