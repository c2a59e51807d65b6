"""Unit tests for the array-vectorized crossbar."""

import copy
import pickle

import cloudpickle
import numpy as np
import pytest

from repro.crossbar import Crossbar
from repro.device import DeviceConfig, DeviceVariability, Memristor
from repro.exceptions import ConfigurationError, ShapeError


@pytest.fixture()
def xb(device_config):
    return Crossbar(4, 5, device_config, seed=1)


class TestConstruction:
    def test_validation(self, device_config):
        with pytest.raises(ConfigurationError):
            Crossbar(0, 5, device_config)
        with pytest.raises(ConfigurationError):
            Crossbar(4, 5, device_config, r_tia=0.0)

    def test_starts_fresh(self, xb):
        assert xb.total_pulses() == 0
        assert xb.dead_fraction() == 0.0
        np.testing.assert_array_equal(xb.resistance, xb.r_fresh_max)

    def test_variability_spreads_bounds(self, device_config):
        device_config.variability = DeviceVariability(0.1, 0.1)
        xb = Crossbar(20, 20, device_config, seed=2)
        assert np.std(xb.r_fresh_max) > 0


class TestProgramming:
    def test_program_shape_check(self, xb):
        with pytest.raises(ShapeError):
            xb.program(np.full((2, 2), 5e4))

    def test_program_rejects_nonpositive(self, xb):
        targets = np.full(xb.shape, 5e4)
        targets[0, 0] = -1.0
        with pytest.raises(ConfigurationError):
            xb.program(targets)

    def test_program_quantizes(self, xb):
        achieved = xb.program(np.full(xb.shape, 5.47e4))
        levels = xb.grid.resistance_levels
        for value in achieved.ravel():
            assert np.min(np.abs(levels - value)) < 1e-9

    def test_only_changed_skips_pulses(self, xb):
        targets = np.full(xb.shape, 5e4)
        xb.program(targets)
        pulses = xb.total_pulses()
        xb.program(targets)  # nothing changed
        assert xb.total_pulses() == pulses

    def test_only_changed_false_pulses_everything(self, xb):
        targets = np.full(xb.shape, 5e4)
        xb.program(targets)
        pulses = xb.total_pulses()
        xb.program(targets, only_changed=False)
        assert xb.total_pulses() == pulses + xb.rows * xb.cols

    def test_stress_is_current_weighted(self, device_config):
        xb = Crossbar(1, 2, device_config, seed=3)
        targets = np.array([[device_config.r_min, device_config.r_max]])
        xb.program(targets)
        assert xb.stress_time[0, 0] > xb.stress_time[0, 1]

    def test_matches_scalar_memristor(self, device_config):
        """A crossbar entry and a Memristor with the same history agree
        on aged bounds and achieved value."""
        xb = Crossbar(1, 1, device_config, seed=4)
        cell = Memristor(device_config, seed=5)
        for target in (5e4, 2e4, 8e4):
            xb.program(np.array([[target]]), only_changed=False)
            cell.program(target)
        np.testing.assert_allclose(xb.resistance[0, 0], cell.resistance)
        lo_x, hi_x = xb.aged_bounds()
        lo_c, hi_c = cell.aged_bounds()
        assert lo_x[0, 0] == pytest.approx(lo_c)
        assert hi_x[0, 0] == pytest.approx(hi_c)


class TestStepping:
    def test_step_conductance_moves_conductance(self, xb):
        xb.program(np.full(xb.shape, 5e4))
        g_before = xb.conductances().copy()
        directions = np.zeros(xb.shape, dtype=int)
        directions[0, 0] = 1
        xb.step_conductance(directions, fraction=0.5)
        g_after = xb.conductances()
        g_step = (xb.config.g_max - xb.config.g_min) / (xb.grid.n_levels - 1)
        assert g_after[0, 0] - g_before[0, 0] == pytest.approx(0.5 * g_step, rel=1e-6)

    def test_step_conductance_validation(self, xb):
        with pytest.raises(ConfigurationError):
            xb.step_conductance(np.zeros(xb.shape, dtype=int), fraction=0.0)

    def test_step_conductance_shape_check(self, xb):
        with pytest.raises(ShapeError):
            xb.step_conductance(np.zeros((2, 2), dtype=int))

    def test_step_conductance_rejects_other_directions(self, xb):
        before = xb.resistance.copy()
        directions = np.zeros(xb.shape, dtype=int)
        directions[0, 0] = 2
        with pytest.raises(ConfigurationError, match="-1, 0, 1"):
            xb.step_conductance(directions)
        np.testing.assert_array_equal(xb.resistance, before)
        assert xb.total_pulses() == 0

    def test_steps_age_devices(self, xb):
        xb.program(np.full(xb.shape, 5e4))
        pulses = xb.total_pulses()
        directions = np.ones(xb.shape, dtype=int)
        xb.step_conductance(directions)
        assert xb.total_pulses() == pulses + xb.rows * xb.cols


class TestAgingLifecycle:
    def test_heavy_programming_kills_devices(self, device_config):
        xb = Crossbar(3, 3, device_config, seed=6)
        low = np.full((3, 3), device_config.r_min)
        high = np.full((3, 3), device_config.r_max)
        for _ in range(200):
            xb.program(low, only_changed=False)
            if xb.dead_fraction() == 1.0:
                break
        assert xb.dead_fraction() == 1.0
        # Dead devices ignore further programming.
        frozen = xb.resistance.copy()
        xb.program(high, only_changed=False)
        np.testing.assert_array_equal(xb.resistance, frozen)

    def test_usable_level_counts_decrease(self, device_config):
        xb = Crossbar(2, 2, device_config, seed=7)
        n0 = xb.usable_level_counts().min()
        for _ in range(40):
            xb.program(np.full((2, 2), device_config.r_min), only_changed=False)
        assert xb.usable_level_counts().max() < n0


class TestDrift:
    def test_drift_moves_values_without_stress(self, xb):
        xb.program(np.full(xb.shape, 5e4))
        pulses = xb.total_pulses()
        before = xb.resistance.copy()
        xb.apply_drift(0.1)
        assert xb.total_pulses() == pulses
        assert not np.allclose(xb.resistance, before)

    def test_drift_zero_is_noop(self, xb):
        xb.program(np.full(xb.shape, 5e4))
        before = xb.resistance.copy()
        xb.apply_drift(0.0)
        np.testing.assert_array_equal(xb.resistance, before)

    def test_drift_stays_in_window(self, xb):
        xb.program(np.full(xb.shape, 5e4))
        xb.apply_drift(2.0)  # extreme drift
        lo, hi = xb.aged_bounds()
        assert np.all(xb.resistance >= lo) and np.all(xb.resistance <= hi)

    def test_drift_validates(self, xb):
        with pytest.raises(ConfigurationError):
            xb.apply_drift(-0.1)


class TestReadout:
    def test_read_noise(self):
        cfg = DeviceConfig(write_noise=0.0, read_noise=0.05)
        xb = Crossbar(3, 3, cfg, seed=8)
        xb.program(np.full((3, 3), 5e4))
        stored = xb.resistance.copy()
        a = xb.read_resistances()
        b = xb.read_resistances()
        assert not np.allclose(a, b)
        # Reading never mutates the programmed state.
        np.testing.assert_array_equal(xb.resistance, stored)


class TestStateCopy:
    """Copies carry the arrays and version counters, not the aged-bounds caches."""

    COPIES = {
        "pickle": lambda xb: pickle.loads(pickle.dumps(xb)),
        "cloudpickle": lambda xb: cloudpickle.loads(cloudpickle.dumps(xb)),
        "deepcopy": copy.deepcopy,
        "copy": copy.copy,
    }

    @pytest.fixture()
    def worn(self, device_config, rng):
        device_config.variability = DeviceVariability(0.1, 0.1)
        xb = Crossbar(6, 5, device_config, seed=3)
        low = device_config.r_min
        for _ in range(180):
            xb.program(rng.uniform(low, 2 * low, xb.shape), only_changed=False)
        # Fill every cache.
        xb.conductances()
        xb.dead_mask()
        assert 0 < xb.dead_fraction() < 1
        return xb

    @pytest.mark.parametrize("how", sorted(COPIES))
    def test_copy_has_empty_caches_and_equal_state(self, worn, how):
        versions = (worn.state_version, worn._stress_version)
        clone = self.COPIES[how](worn)
        assert clone._bounds_cache is None
        assert clone._dead_cache is None
        assert (clone.state_version, clone._stress_version) == versions
        # The original keeps its caches.
        assert worn._dead_cache is not None
        pairs = [
            (clone.conductances(), worn.conductances()),
            (clone.dead_mask(), worn.dead_mask()),
            *zip(clone.aged_bounds(), worn.aged_bounds()),
        ]
        for got, want in pairs:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert (clone.state_version, clone._stress_version) == versions
