"""Memristor crossbar array simulator.

A :class:`Crossbar` is an array of programmable cells sharing one
:class:`~repro.device.config.DeviceConfig`.  State (fresh bounds, pulse
counters, stress time, programmed resistance) is stored in numpy arrays
so programming and aging of thousands of devices are vectorized; the
semantics per cell are identical to :class:`repro.device.Memristor`.

Components:

* :class:`Crossbar` — the array itself: programming (with per-pulse
  aging), tuning pulses, conductance read-out for the analog
  ``V_O = V_I · G · R`` of Fig. 1, read/write noise.
* :class:`BlockTracer` — the paper's 1-of-9 tracing: the centre device
  of every 3×3 block is monitored, and its aged window stands in for
  its block during aging-aware mapping.
* :class:`TiledMatrix` — partition a weight matrix larger than one
  physical array across multiple crossbar tiles.
"""

from repro.crossbar.crossbar import Crossbar
from repro.crossbar.tiling import TiledMatrix
from repro.crossbar.tracer import BlockTracer

__all__ = ["BlockTracer", "Crossbar", "TiledMatrix"]
