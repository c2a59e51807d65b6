"""Memristor device models.

This package implements the physical substrate of the paper:

* :class:`ArrheniusAging` — the Eq. (6)–(7) endurance-degradation model.
  Every programming pulse adds stress time; the valid resistance window
  ``[R_min, R_max]`` shrinks (both bounds decrease, the upper bound
  faster), exactly the Fig. 4 scenario.
* :class:`LevelGrid` — uniformly spaced *resistance* levels whose
  reciprocal conductance levels crowd towards small conductances
  (Fig. 3), the asymmetry the skewed training exploits.

The devices themselves live in :class:`repro.crossbar.Crossbar`, one
array per crossbar: a single cell is a ``1x1`` crossbar.
"""

from repro.device.aging import AgingParams, ArrheniusAging, BOLTZMANN_EV
from repro.device.config import DeviceConfig
from repro.device.levels import LevelGrid

__all__ = [
    "AgingParams",
    "ArrheniusAging",
    "BOLTZMANN_EV",
    "DeviceConfig",
    "LevelGrid",
]
