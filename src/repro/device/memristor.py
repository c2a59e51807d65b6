"""Single memristor cell.

The crossbar simulator is array-based for speed, but a scalar cell is
the natural unit for device-level tests, for the traced *representative
memristors* of the aging-aware mapping, and for user-facing examples.
Both implementations share the same :class:`~repro.device.config.DeviceConfig`,
:class:`~repro.device.levels.LevelGrid` and
:class:`~repro.device.aging.ArrheniusAging`, so a cell and a crossbar
entry with identical histories report identical aged bounds.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.device.config import DeviceConfig
from repro.exceptions import ConfigurationError, DeviceError
from repro.rng import SeedLike, ensure_rng


class Memristor:
    """A programmable resistive cell with irreversible aging.

    Parameters
    ----------
    config:
        Device class parameters (window, levels, aging, noise).
    r_fresh_min, r_fresh_max:
        Per-device fresh bounds; default to the nominal config window
        (pass values sampled from
        :class:`~repro.device.variability.DeviceVariability` to model
        spread).
    seed:
        RNG for write/read noise.
    """

    def __init__(
        self,
        config: Optional[DeviceConfig] = None,
        r_fresh_min: Optional[float] = None,
        r_fresh_max: Optional[float] = None,
        seed: SeedLike = None,
    ) -> None:
        self.config = config if config is not None else DeviceConfig()
        self.r_fresh_min = float(r_fresh_min if r_fresh_min is not None else self.config.r_min)
        self.r_fresh_max = float(r_fresh_max if r_fresh_max is not None else self.config.r_max)
        if self.r_fresh_min <= 0 or self.r_fresh_max <= self.r_fresh_min:
            raise ConfigurationError(
                f"invalid fresh bounds [{self.r_fresh_min}, {self.r_fresh_max}]"
            )
        self.grid = self.config.make_level_grid()
        self.aging = self.config.make_aging_model()
        self._rng = ensure_rng(seed)
        #: Number of programming pulses ever applied.
        self.pulse_count = 0
        #: Accumulated programming-stress time in seconds.
        self.stress_time = 0.0
        #: Currently programmed resistance (starts at the fresh maximum,
        #: i.e. the high-resistance state a fresh device wakes up in).
        self.resistance = self.r_fresh_max

    # -- aging state --------------------------------------------------------
    def aged_bounds(self) -> Tuple[float, float]:
        """Current ``(R_aged,min, R_aged,max)`` from Eq. (6)–(7)."""
        lo, hi = self.aging.aged_bounds(
            self.r_fresh_min, self.r_fresh_max, self.config.temperature, self.stress_time
        )
        return float(lo), float(hi)

    @property
    def is_dead(self) -> bool:
        """True once fewer than two quantized levels remain usable.

        With fewer than two levels the cell can no longer encode
        information; this is the per-device end-of-life criterion
        (array-level end-of-life is the tuning-divergence criterion of
        the lifetime engine).
        """
        lo, hi = self.aged_bounds()
        return int(self.grid.usable_count(lo, hi)) < 2

    def usable_levels(self) -> np.ndarray:
        """Fresh-grid levels still inside the aged window."""
        lo, hi = self.aged_bounds()
        return self.grid.usable_levels(lo, hi)

    # -- operations -----------------------------------------------------------
    def _stress(self, pulses: int, at_resistance: float) -> None:
        """Accrue ``pulses`` of stress at the given operating resistance.

        Stress per pulse scales with the programming current
        (``DeviceConfig.stress_factor``), so pulses at large resistance
        age the device less.
        """
        self.pulse_count += pulses
        factor = self.config.stress_factor(at_resistance)
        self.stress_time += pulses * self.config.pulse_width * factor

    def program(self, target_resistance: float, pulses: int = 1) -> float:
        """Program towards ``target_resistance`` with ``pulses`` pulses.

        The achieved resistance is the target clipped into the *aged*
        window, snapped to the nearest usable fresh-grid level, plus
        write noise.  Programming a dead device raises
        :class:`~repro.exceptions.DeviceError`.
        Returns the achieved resistance.
        """
        if target_resistance <= 0:
            raise ConfigurationError(f"target resistance must be > 0, got {target_resistance}")
        if pulses < 1:
            raise ConfigurationError(f"pulses must be >= 1, got {pulses}")
        if self.is_dead:
            raise DeviceError(
                f"device window collapsed after {self.pulse_count} pulses; cannot program"
            )
        self._stress(pulses, max(target_resistance, 0.1 * self.grid.r_min))
        lo, hi = self.aged_bounds()
        achieved = self.grid.quantize(target_resistance, lo, hi)
        if self.config.write_noise > 0:
            achieved += self._rng.normal(0.0, self.config.write_noise * self.grid.step)
            achieved = float(np.clip(achieved, lo, hi)) if hi > lo else lo
        self.resistance = float(achieved)
        return self.resistance

    def read(self) -> float:
        """Read the programmed resistance (with read noise if configured)."""
        if self.config.read_noise <= 0:
            return self.resistance
        noisy = self.resistance * (1.0 + self._rng.normal(0.0, self.config.read_noise))
        return float(max(noisy, 1e-3))

    @property
    def conductance(self) -> float:
        """Programmed conductance ``1/R`` (noise-free)."""
        return 1.0 / self.resistance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lo, hi = self.aged_bounds()
        return (
            f"Memristor(R={self.resistance:.3g}, window=[{lo:.3g}, {hi:.3g}], "
            f"pulses={self.pulse_count})"
        )
