"""Device configuration shared by cells, crossbars and experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.device.aging import AgingParams, ArrheniusAging
from repro.device.levels import LevelGrid
from repro.exceptions import ConfigurationError


@dataclass
class DeviceConfig:
    """Everything needed to instantiate memristors and crossbars.

    Defaults model a HfOx-class RRAM cell: a 10 kΩ–100 kΩ window,
    32 uniformly spaced resistance levels, 1 µs programming pulses at
    300 K, and an endurance of ``pulses_to_collapse`` pulses before the
    window fully closes (used to calibrate the Arrhenius prefactors —
    the paper publishes only the functional form, see
    ``repro.device.aging``).
    """

    r_min: float = 1e4
    r_max: float = 1e5
    n_levels: int = 32
    pulse_width: float = 1e-6
    temperature: float = 300.0
    pulses_to_collapse: float = 2e4
    min_bound_fraction: float = 0.25
    activation_energy: float = 0.4
    time_exponent: float = 1.0
    #: Current-dependence of aging stress: a programming pulse applied
    #: while the device sits at resistance R contributes
    #: ``pulse_width * (r_min / R) ** current_aging_exponent`` seconds
    #: of stress.  At fixed programming voltage the dissipated power is
    #: V^2/R, and filamentary endurance degradation is superlinear in
    #: the dissipated power (field/temperature acceleration, refs [17],
    #: [18] of the paper), so exponent 2 is the default: devices
    #: programmed to large resistances (small conductances) age much
    #: slower.  This is the mechanism the skewed training exploits
    #: (paper Section IV-A: "By pushing the conductances of memristors
    #: towards small values, the current flowing through memristors can
    #: be reduced to alleviate the aging effect").  Set 0 to make every
    #: pulse equally stressful.
    current_aging_exponent: float = 2.0
    #: Write noise: std-dev of programming error as a fraction of one
    #: level step (set 0 for deterministic programming).
    write_noise: float = 0.1
    #: Read noise: relative std-dev of a resistance read-out.
    read_noise: float = 0.0
    #: Explicit aging parameters; when None they are calibrated from
    #: ``pulses_to_collapse``.
    aging_params: Optional[AgingParams] = field(default=None)

    def __post_init__(self) -> None:
        if self.r_min <= 0 or self.r_max <= self.r_min:
            raise ConfigurationError(
                f"need 0 < r_min < r_max, got r_min={self.r_min}, r_max={self.r_max}"
            )
        if self.n_levels < 2:
            raise ConfigurationError(f"n_levels must be >= 2, got {self.n_levels}")
        if self.pulse_width <= 0:
            raise ConfigurationError(f"pulse_width must be > 0, got {self.pulse_width}")
        if self.temperature <= 0:
            raise ConfigurationError(f"temperature must be > 0, got {self.temperature}")
        if self.write_noise < 0 or self.read_noise < 0:
            raise ConfigurationError("noise levels must be >= 0")
        if self.current_aging_exponent < 0:
            raise ConfigurationError(
                f"current_aging_exponent must be >= 0, got {self.current_aging_exponent}"
            )

    def stress_factor(self, resistance):
        """Relative aging stress of one pulse at ``resistance``.

        Normalized to 1.0 at the fresh minimum resistance (maximum
        programming current); vectorized over arrays.
        """
        r = np.maximum(np.asarray(resistance, dtype=np.float64), 1.0)
        factor = (self.r_min / r) ** self.current_aging_exponent
        return float(factor) if np.isscalar(resistance) else factor

    @property
    def g_min(self) -> float:
        """Minimum conductance (at ``r_max``)."""
        return 1.0 / self.r_max

    @property
    def g_max(self) -> float:
        """Maximum conductance (at ``r_min``)."""
        return 1.0 / self.r_min

    def make_level_grid(self) -> LevelGrid:
        """Fresh-window level grid for this device class."""
        return LevelGrid(self.r_min, self.r_max, self.n_levels)

    def make_aging_model(self) -> ArrheniusAging:
        """Aging evaluator (calibrated if no explicit params given)."""
        params = self.aging_params
        if params is None:
            params = AgingParams.calibrated(
                self.r_min,
                self.r_max,
                pulses_to_collapse=self.pulses_to_collapse,
                pulse_width=self.pulse_width,
                temperature=self.temperature,
                min_bound_fraction=self.min_bound_fraction,
                activation_energy=self.activation_energy,
                time_exponent=self.time_exponent,
            )
        return ArrheniusAging(params)
