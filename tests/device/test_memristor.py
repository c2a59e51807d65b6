"""Unit tests for the scalar memristor cell."""

import numpy as np
import pytest

from repro.device import DeviceConfig, Memristor
from repro.exceptions import ConfigurationError, DeviceError


@pytest.fixture()
def cell(device_config):
    return Memristor(device_config, seed=1)


class TestConstruction:
    def test_starts_fresh_in_hrs(self, cell):
        assert cell.resistance == cell.r_fresh_max
        assert cell.pulse_count == 0
        assert not cell.is_dead

    def test_rejects_bad_bounds(self, device_config):
        with pytest.raises(ConfigurationError):
            Memristor(device_config, r_fresh_min=1e5, r_fresh_max=1e4)


class TestProgramming:
    def test_program_snaps_to_level(self, cell):
        achieved = cell.program(5.47e4)
        level_values = cell.grid.resistance_levels
        assert np.min(np.abs(level_values - achieved)) < 1e-9
        assert cell.pulse_count == 1

    def test_program_validates(self, cell):
        with pytest.raises(ConfigurationError):
            cell.program(-5.0)
        with pytest.raises(ConfigurationError):
            cell.program(5e4, pulses=0)

    def test_stress_accumulates_with_current_weighting(self, device_config):
        """A pulse at low resistance stresses more than at high
        resistance (the skewed-training lever)."""
        low = Memristor(device_config, seed=1)
        high = Memristor(device_config, seed=1)
        low.program(device_config.r_min)
        high.program(device_config.r_max)
        assert low.stress_time > high.stress_time

    def test_aging_shrinks_window(self, cell):
        lo0, hi0 = cell.aged_bounds()
        for _ in range(50):
            cell.program(2e4)
        lo1, hi1 = cell.aged_bounds()
        assert hi1 < hi0
        assert (hi1 - lo1) < (hi0 - lo0)

    def test_aged_cell_clips_high_targets(self, device_config):
        cell = Memristor(device_config, seed=2)
        # Age heavily at max stress.
        for _ in range(60):
            cell.program(device_config.r_min)
        achieved = cell.program(device_config.r_max)
        _lo, hi = cell.aged_bounds()
        assert achieved <= hi

    def test_dead_cell_raises(self, device_config):
        cell = Memristor(device_config, seed=3)
        with pytest.raises(DeviceError):
            for _ in range(10_000):
                cell.program(device_config.r_min)
        assert cell.is_dead

    def test_usable_levels_decrease(self, device_config):
        cell = Memristor(device_config, seed=4)
        n0 = len(cell.usable_levels())
        for _ in range(80):
            cell.program(device_config.r_min)
        assert len(cell.usable_levels()) < n0


class TestReadout:
    def test_noise_free_read(self, cell):
        cell.program(3e4)
        assert cell.read() == cell.resistance

    def test_read_noise(self):
        cfg = DeviceConfig(read_noise=0.05, write_noise=0.0)
        cell = Memristor(cfg, seed=5)
        cell.program(5e4)
        reads = [cell.read() for _ in range(200)]
        assert np.std(reads) > 0
        assert abs(np.mean(reads) - cell.resistance) < 0.02 * cell.resistance

    def test_conductance_is_reciprocal(self, cell):
        cell.program(2.5e4)
        assert cell.conductance == pytest.approx(1.0 / cell.resistance)

    def test_write_noise_perturbs(self):
        cfg = DeviceConfig(write_noise=0.2)
        a = Memristor(cfg, seed=6)
        b = Memristor(cfg, seed=7)
        assert a.program(5e4) != b.program(5e4)
