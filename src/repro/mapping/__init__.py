"""Hardware mapping: trained weights → memristor conductances.

* :class:`LinearWeightMapping` — the paper's Eq. (4) affine map between
  the weight range ``[w_min, w_max]`` and the conductance range
  ``[g_min, g_max]`` (one common range per array so column currents sum
  linearly).
* :func:`quantize_weights` — software prediction of what a weight
  matrix looks like after the resistance-domain quantization round trip
  (Fig. 3), without touching a crossbar.
* :class:`FreshMapper` — the baseline policy: assume fresh windows.
* :class:`AgingAwareMapper` — the paper's Section IV-B policy: iterate
  candidate common upper bounds from the traced devices (Fig. 8) and
  keep the one with the best predicted classification accuracy.
* :class:`MappedNetwork` — maps every weighted layer of a trained
  :class:`~repro.nn.model.Sequential` onto tiled crossbars and runs
  inference/tuning against the simulated hardware.
"""

from repro.mapping.aging_aware import AgingAwareMapper, RangeSelection
from repro.mapping.fresh import FreshMapper
from repro.mapping.linear import LinearWeightMapping
from repro.mapping.network import MappedLayer, MappedNetwork, clone_model
from repro.mapping.quantize import quantization_error, quantize_weights

__all__ = [
    "AgingAwareMapper",
    "FreshMapper",
    "LinearWeightMapping",
    "MappedLayer",
    "MappedNetwork",
    "RangeSelection",
    "clone_model",
    "quantization_error",
    "quantize_weights",
]
