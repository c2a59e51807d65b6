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
* :class:`InputDriver` / :class:`OutputConverter` — DAC/TIA/ADC
  peripheral models for the analog interface.
* :class:`TiledMatrix` — partition a weight matrix larger than one
  physical array across multiple crossbar tiles.
"""

from repro.crossbar.crossbar import Crossbar
from repro.crossbar.energy import EnergyParams, programming_energy, vmm_read_energy
from repro.crossbar.parasitics import (
    ParasiticModel,
    ir_drop_factors,
    solve_crossbar_nodal,
    vmm_with_ir_drop,
)
from repro.crossbar.peripheral import InputDriver, OutputConverter
from repro.crossbar.tiling import TiledMatrix
from repro.crossbar.tracer import BlockTracer

__all__ = [
    "BlockTracer",
    "Crossbar",
    "EnergyParams",
    "InputDriver",
    "OutputConverter",
    "ParasiticModel",
    "TiledMatrix",
    "ir_drop_factors",
    "programming_energy",
    "solve_crossbar_nodal",
    "vmm_read_energy",
    "vmm_with_ir_drop",
]
