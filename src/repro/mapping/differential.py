"""Differential-pair weight mapping.

The paper maps signed weights onto a *single* conductance per weight
with the affine Eq. (4).  Most fabricated accelerators instead use a
**differential pair**: two devices per weight on a positive and a
negative column, with

    w  =  (g_plus - g_minus) * w_scale / (g_max - g_min)

Zero weights sit at ``g_plus = g_minus = g_min`` (both devices at large
resistance), positive weights raise the plus arm, negative weights the
minus arm.  Compared with Eq. (4):

* twice the devices, but **no common-range coupling** between weights —
  each weight's representation is local;
* a quasi-normal distribution puts *most* devices near ``g_min``
  (large R), so differential arrays intrinsically program with low
  current — they get part of the skewed-training benefit for free,
  which is exactly why the comparison benchmark
  (``benchmarks/test_ext_differential.py``) is interesting.

:class:`DifferentialMappedNetwork` maps a trained network onto pairs and
scores it, so the benchmark can compare accuracy and programming stress
against the single-device mapping.  It does not tune or age in the
lifetime loop.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.crossbar.tiling import TiledMatrix
from repro.device.config import DeviceConfig
from repro.exceptions import ConfigurationError
from repro.mapping.network import _layer_matrix, _matrix_to_kernel, clone_model
from repro.nn.model import Sequential
from repro.rng import SeedLike, ensure_rng, spawn_rng

ArrayLike = Union[float, np.ndarray]


class DifferentialPairMapping:
    """Bidirectional map between signed weights and conductance pairs."""

    def __init__(self, w_abs_max: float, g_min: float, g_max: float) -> None:
        if w_abs_max <= 0:
            raise ConfigurationError(f"w_abs_max must be > 0, got {w_abs_max}")
        if g_min <= 0 or g_max <= g_min:
            raise ConfigurationError(
                f"need 0 < g_min < g_max, got g_min={g_min}, g_max={g_max}"
            )
        self.w_abs_max = float(w_abs_max)
        self.g_min = float(g_min)
        self.g_max = float(g_max)

    @classmethod
    def from_weights(
        cls, weights: np.ndarray, g_min: float, g_max: float
    ) -> "DifferentialPairMapping":
        """Scale from the observed absolute-maximum weight."""
        w_abs = float(np.max(np.abs(weights)))
        return cls(w_abs if w_abs > 0 else 1.0, g_min, g_max)

    @property
    def slope(self) -> float:
        """d(g_plus - g_minus)/dw."""
        return (self.g_max - self.g_min) / self.w_abs_max

    def weight_to_conductances(self, w: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
        """Signed weights → (g_plus, g_minus), each in [g_min, g_max]."""
        w = np.clip(np.asarray(w, dtype=np.float64), -self.w_abs_max, self.w_abs_max)
        g_plus = self.g_min + self.slope * np.maximum(w, 0.0)
        g_minus = self.g_min + self.slope * np.maximum(-w, 0.0)
        return g_plus, g_minus

    def weight_to_resistances(self, w: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
        """Signed weights → (r_plus, r_minus) programming targets."""
        g_plus, g_minus = self.weight_to_conductances(w)
        return 1.0 / g_plus, 1.0 / g_minus

    def conductances_to_weight(
        self, g_plus: ArrayLike, g_minus: ArrayLike
    ) -> np.ndarray:
        """Invert: conductance pair → effective signed weight (unclipped)."""
        diff = np.asarray(g_plus, dtype=np.float64) - np.asarray(g_minus, dtype=np.float64)
        return diff / self.slope

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DifferentialPairMapping(w_abs_max={self.w_abs_max:.4g}, "
            f"g=[{self.g_min:.4g}, {self.g_max:.4g}])"
        )


class DifferentialMappedLayer:
    """One weighted layer stored as plus/minus device arrays."""

    def __init__(
        self,
        layer_index: int,
        layer,
        device_config: DeviceConfig,
        tile_rows: int,
        tile_cols: int,
        seed: SeedLike = None,
    ) -> None:
        self.layer_index = int(layer_index)
        self.layer = layer
        self.device_config = device_config
        matrix = _layer_matrix(layer)
        self.matrix_shape: Tuple[int, int] = matrix.shape
        rng = ensure_rng(seed)
        kwargs = dict(
            tile_rows=tile_rows, tile_cols=tile_cols, config=device_config
        )
        self.plus = TiledMatrix(*matrix.shape, seed=spawn_rng(rng, "plus"), **kwargs)
        self.minus = TiledMatrix(*matrix.shape, seed=spawn_rng(rng, "minus"), **kwargs)
        self.mapping: Optional[DifferentialPairMapping] = None

    def software_matrix(self) -> np.ndarray:
        return _layer_matrix(self.layer)

    def program(self) -> None:
        """Map + program both arms (each device takes a pulse)."""
        self.mapping = DifferentialPairMapping.from_weights(
            self.software_matrix(), self.device_config.g_min, self.device_config.g_max
        )
        w = self.software_matrix()
        r_plus, r_minus = self.mapping.weight_to_resistances(w)
        self.plus.program(np.asarray(r_plus))
        self.minus.program(np.asarray(r_minus))

    def hardware_matrix(self) -> np.ndarray:
        if self.mapping is None:
            raise ConfigurationError("layer has never been programmed")
        g_plus = 1.0 / self.plus.read_resistances()
        g_minus = 1.0 / self.minus.read_resistances()
        return self.mapping.conductances_to_weight(g_plus, g_minus)

    def mean_stress_factor(self) -> float:
        """Mean per-pulse stress of the *programmed* state (both arms)."""
        r_all = np.concatenate(
            [self.plus.resistances().ravel(), self.minus.resistances().ravel()]
        )
        return float(np.mean(self.device_config.stress_factor(r_all)))


class DifferentialMappedNetwork:
    """A trained network on differential-pair hardware."""

    def __init__(
        self,
        model: Sequential,
        device_config: Optional[DeviceConfig] = None,
        tile_rows: int = 128,
        tile_cols: int = 128,
        seed: SeedLike = None,
    ) -> None:
        if not model.built:
            raise ConfigurationError("model must be built before mapping")
        self.model = model
        self.device_config = device_config if device_config is not None else DeviceConfig()
        rng = ensure_rng(seed)
        self.layers: List[DifferentialMappedLayer] = [
            DifferentialMappedLayer(
                idx,
                layer,
                self.device_config,
                tile_rows,
                tile_cols,
                seed=spawn_rng(rng, f"dlayer{idx}"),
            )
            for idx, layer in model.weighted_layers()
        ]
        self._scratch = clone_model(model)
        self._scratch.set_regularizers(None)

    def map_network(self) -> None:
        """Program every layer's pair arrays."""
        for layer in self.layers:
            layer.program()

    def effective_model(self) -> Sequential:
        self._scratch.set_weights(self.model.get_weights())
        for layer in self.layers:
            kernel = _matrix_to_kernel(layer.hardware_matrix(), layer.layer)
            self._scratch.layers[layer.layer_index].params["W"][...] = kernel
        return self._scratch

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> Tuple[float, float]:
        return self.effective_model().evaluate(x, y)

    def score(self, x: np.ndarray, y: np.ndarray) -> float:
        return self.evaluate(x, y)[1]

    def mean_stress_factor(self) -> float:
        """Device-count-weighted mean per-pulse stress across layers."""
        weights = [2 * l.matrix_shape[0] * l.matrix_shape[1] for l in self.layers]
        values = [l.mean_stress_factor() for l in self.layers]
        return float(np.average(values, weights=weights))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DifferentialMappedNetwork(layers={len(self.layers)})"
