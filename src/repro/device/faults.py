"""Fabrication fault models for crossbar arrays.

Real memristor arrays ship with stuck-at defects: cells welded into
their low-resistance state (stuck-at-LRS, a short through the filament)
or frozen at high resistance (stuck-at-HRS, a never-formed filament).
The paper assumes defect-free arrays; this module adds the standard
fault model so the robustness of the mapping/tuning pipeline can be
quantified (``benchmarks/test_ext_fault_tolerance.py``).

A fault map is sampled once per array and applied by pinning the
affected devices: their resistance is forced to the stuck value and
they ignore programming (implemented by exhausting their endurance so
the crossbar's dead-device logic takes over, plus pinning the value).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.crossbar.crossbar import Crossbar
from repro.exceptions import ConfigurationError
from repro.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class FaultModel:
    """Stuck-at fault rates (fractions of all devices).

    ``rate_lrs`` devices are welded at the (aged-window) minimum
    resistance, ``rate_hrs`` at the maximum.  Rates are independent;
    their sum must stay below 1.
    """

    rate_lrs: float = 0.0
    rate_hrs: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_lrs < 0 or self.rate_hrs < 0:
            raise ConfigurationError("fault rates must be >= 0")
        if self.rate_lrs + self.rate_hrs >= 1.0:
            raise ConfigurationError(
                f"total fault rate must be < 1, got {self.rate_lrs + self.rate_hrs}"
            )

    @property
    def total_rate(self) -> float:
        return self.rate_lrs + self.rate_hrs

    def sample_masks(
        self, shape: Tuple[int, int], seed: SeedLike = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Boolean (stuck_lrs, stuck_hrs) masks for an array of ``shape``."""
        rng = ensure_rng(seed)
        u = rng.random(shape)
        stuck_lrs = u < self.rate_lrs
        stuck_hrs = (u >= self.rate_lrs) & (u < self.total_rate)
        return stuck_lrs, stuck_hrs


def inject_faults(
    crossbar: Crossbar, model: FaultModel, seed: SeedLike = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Pin stuck devices in ``crossbar`` according to ``model``.

    Stuck devices are clamped to the extreme of their fresh window and
    their endurance is exhausted (their stress time jumps past
    window collapse), so every later programming/tuning call skips them
    via the dead-device mask.  Returns the two fault masks.
    """
    stuck_lrs, stuck_hrs = model.sample_masks(crossbar.shape, seed)
    crossbar.resistance = np.where(
        stuck_lrs, crossbar.r_fresh_min, crossbar.resistance
    )
    crossbar.resistance = np.where(
        stuck_hrs, crossbar.r_fresh_max, crossbar.resistance
    )
    any_fault = stuck_lrs | stuck_hrs
    collapse_time = crossbar.aging.stress_time_to_collapse(
        float(np.min(crossbar.r_fresh_min)),
        float(np.max(crossbar.r_fresh_max)),
        crossbar.config.temperature,
    )
    if not np.isfinite(collapse_time):
        raise ConfigurationError(
            "cannot pin faults: aging model never collapses (no endurance limit)"
        )
    crossbar.stress_time = np.where(
        any_fault, 2.0 * collapse_time, crossbar.stress_time
    )
    # The resistance assignments above already bumped the state version;
    # mark again so the stress-time pinning (which changes aged windows,
    # hence future quantization) is its own visible state transition.
    # mark_state_dirty bumps the stress version too, dropping the cached
    # aged-bounds/dead-mask arrays (DESIGN.md §11) that the in-place
    # stress_time edit above would otherwise leave stale.
    crossbar.mark_state_dirty()
    return stuck_lrs, stuck_hrs


def inject_faults_network(network, model: FaultModel, seed: SeedLike = None) -> float:
    """Inject faults into every tile of a mapped network.

    Returns the realized overall fault fraction.
    """
    rng = ensure_rng(seed)
    faulty = 0
    total = 0
    for layer in network.layers:
        for _rs, _cs, tile in layer.tiles.iter_tiles():
            lrs, hrs = inject_faults(tile, model, rng)
            faulty += int(lrs.sum() + hrs.sum())
            total += tile.rows * tile.cols
    return faulty / total if total else 0.0
