"""Unit tests for the array-vectorized crossbar."""

import copy
import pickle

import cloudpickle
import numpy as np
import pytest

from repro.crossbar import Crossbar
from repro.device import DeviceConfig, DeviceVariability
from repro.exceptions import ConfigurationError, ShapeError


@pytest.fixture()
def xb(device_config):
    return Crossbar(4, 5, device_config, seed=1)


class TestConstruction:
    def test_validation(self, device_config):
        with pytest.raises(ConfigurationError):
            Crossbar(0, 5, device_config)

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

    def test_write_noise_perturbs(self):
        cfg = DeviceConfig(write_noise=0.2)
        a, b = Crossbar(1, 1, cfg, seed=6), Crossbar(1, 1, cfg, seed=7)
        target = np.full((1, 1), 5e4)
        assert a.program(target)[0, 0] != b.program(target)[0, 0]


class TestClosedForm:
    """Stress, aged window and death of forced programs, in closed form."""

    @pytest.mark.parametrize("shape", [(1, 1), (3, 4)])
    def test_forced_programs_accrue_closed_form_stress(self, device_config, shape):
        xb = Crossbar(*shape, device_config, seed=4)
        r = 2.5e4
        n = 30
        for _ in range(n):
            xb.program(np.full(shape, r), only_changed=False)
        np.testing.assert_array_equal(xb.pulse_counts, np.full(shape, n))
        expected = n * device_config.pulse_width * device_config.stress_factor(r)
        np.testing.assert_allclose(xb.stress_time, np.full(shape, expected), rtol=1e-12)
        lo, hi = xb.aged_bounds()
        want_lo, want_hi = xb.aging.aged_bounds(
            xb.r_fresh_min, xb.r_fresh_max, device_config.temperature, xb.stress_time
        )
        assert lo.tobytes() == want_lo.tobytes()
        assert hi.tobytes() == want_hi.tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (3, 4)])
    def test_dead_mask_flips_when_fewer_than_two_levels(self, device_config, shape):
        xb = Crossbar(*shape, device_config, seed=5)
        low = np.full(shape, device_config.r_min)
        while not xb.dead_mask().all():
            assert xb.total_pulses() < 10_000 * xb.rows * xb.cols
            np.testing.assert_array_equal(xb.dead_mask(), xb.usable_level_counts() < 2)
            xb.program(low, only_changed=False)
        assert (xb.usable_level_counts() < 2).all()

    @pytest.mark.parametrize("operation", ["program", "program_pulses"])
    def test_dead_device_is_neither_moved_nor_stressed(self, device_config, operation):
        xb = Crossbar(3, 4, device_config, seed=6)
        # Column 0 sits at the highest current and dies first.
        wear = np.full(xb.shape, device_config.r_max)
        wear[:, 0] = device_config.r_min
        while not xb.dead_mask()[0, 0]:
            xb.program(wear, only_changed=False)
        dead = xb.dead_mask().copy()
        assert dead.any() and not dead.all()
        resistance = xb.resistance.copy()
        stress = xb.stress_time.copy()
        pulses = xb.pulse_counts.copy()
        if operation == "program":
            xb.program(np.full(xb.shape, device_config.r_max), only_changed=False)
        else:
            xb.program_pulses(np.ones(xb.shape, dtype=np.int64))
        np.testing.assert_array_equal(xb.resistance[dead], resistance[dead])
        np.testing.assert_array_equal(xb.stress_time[dead], stress[dead])
        np.testing.assert_array_equal(xb.pulse_counts[dead], pulses[dead])
        np.testing.assert_array_equal(xb.pulse_counts[~dead], pulses[~dead] + 1)

    def test_aging_shrinks_window(self, device_config):
        xb = Crossbar(1, 1, device_config, seed=1)
        (lo0, hi0) = (b[0, 0] for b in xb.aged_bounds())
        for _ in range(50):
            xb.program(np.full((1, 1), 2e4), only_changed=False)
        (lo1, hi1) = (b[0, 0] for b in xb.aged_bounds())
        assert hi1 < hi0
        assert (hi1 - lo1) < (hi0 - lo0)

    def test_aged_device_clips_high_targets(self, device_config):
        xb = Crossbar(1, 1, device_config, seed=2)
        for _ in range(60):
            xb.program(np.full((1, 1), device_config.r_min), only_changed=False)
        achieved = xb.program(np.full((1, 1), device_config.r_max))
        _lo, hi = xb.aged_bounds()
        assert achieved[0, 0] <= hi[0, 0]


class TestPulses:
    def test_pulse_moves_conductance(self, xb):
        xb.program(np.full(xb.shape, 5e4))
        g_before = xb.conductances().copy()
        polarity = np.zeros(xb.shape, dtype=int)
        polarity[0, 0] = 1
        assert xb.program_pulses(polarity, fraction=0.5) == 1
        g_after = xb.conductances()
        g_step = (xb.config.g_max - xb.config.g_min) / (xb.grid.n_levels - 1)
        assert g_after[0, 0] - g_before[0, 0] == pytest.approx(0.5 * g_step, rel=1e-6)

    def test_negative_pulse_lowers_conductance_by_fraction(self, xb):
        xb.program(np.full(xb.shape, 5e4))
        g_before = xb.conductances().copy()
        polarity = np.zeros(xb.shape, dtype=int)
        polarity[1, 2] = -1
        assert xb.program_pulses(polarity, fraction=0.25) == 1
        g_step = (xb.config.g_max - xb.config.g_min) / (xb.grid.n_levels - 1)
        assert g_before[1, 2] - xb.conductances()[1, 2] == pytest.approx(0.25 * g_step, rel=1e-6)

    def test_pulse_shape_check(self, xb):
        with pytest.raises(ShapeError):
            xb.program_pulses(np.zeros((2, 2), dtype=int))
        assert xb.total_pulses() == 0

    def test_pulses_age_devices(self, xb):
        xb.program(np.full(xb.shape, 5e4))
        pulses = xb.total_pulses()
        assert xb.program_pulses(np.ones(xb.shape, dtype=int)) == xb.rows * xb.cols
        assert xb.total_pulses() == pulses + xb.rows * xb.cols

    def test_zero_polarity_leaves_device_untouched_and_unstressed(self):
        cfg = DeviceConfig(pulses_to_collapse=100, write_noise=0.2)
        xb = Crossbar(4, 5, cfg, seed=9)
        xb.program(np.full(xb.shape, 5e4))
        polarity = np.random.default_rng(2).integers(-1, 2, size=xb.shape)
        idle = polarity == 0
        assert idle.any() and not idle.all()
        resistance = xb.resistance.copy()
        stress = xb.stress_time.copy()
        pulses = xb.pulse_counts.copy()
        assert xb.program_pulses(polarity) == np.count_nonzero(~idle)
        np.testing.assert_array_equal(xb.resistance[idle], resistance[idle])
        np.testing.assert_array_equal(xb.stress_time[idle], stress[idle])
        np.testing.assert_array_equal(xb.pulse_counts[idle], pulses[idle])
        assert (xb.stress_time[~idle] > stress[~idle]).all()


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
    def test_noise_free_read_is_reciprocal_resistance(self, xb):
        xb.program(np.full(xb.shape, 3e4))
        state = xb._rng.bit_generator.state
        g = xb.read_conductances()
        assert g.tobytes() == (1.0 / xb.resistance).tobytes()
        assert xb._rng.bit_generator.state == state

    def test_read_noise(self):
        cfg = DeviceConfig(write_noise=0.0, read_noise=0.05)
        xb = Crossbar(3, 3, cfg, seed=8)
        xb.program(np.full((3, 3), 5e4))
        stored = xb.resistance.copy()
        a = xb.read_conductances()
        b = xb.read_conductances()
        assert not np.allclose(a, b)
        # Reading never mutates the programmed state.
        np.testing.assert_array_equal(xb.resistance, stored)

    def test_read_noise_is_centred_on_the_stored_value(self):
        cfg = DeviceConfig(read_noise=0.05, write_noise=0.0)
        xb = Crossbar(1, 1, cfg, seed=5)
        xb.program(np.full((1, 1), 5e4))
        reads = np.array([1.0 / xb.read_conductances()[0, 0] for _ in range(200)])
        assert np.std(reads) > 0
        assert abs(np.mean(reads) - xb.resistance[0, 0]) < 0.02 * xb.resistance[0, 0]

    def test_noisy_read_draws_in_resistance_then_inverts(self):
        """One normal draw per device scales the stored resistance, then
        the read is floored at 1 mOhm and inverted."""
        cfg = DeviceConfig(read_noise=0.03, write_noise=0.0)
        xb = Crossbar(2, 3, cfg, seed=12)
        xb.program(np.full(xb.shape, 4e4))
        xb.read_noise_extra = 0.02
        twin = np.random.default_rng()
        twin.bit_generator.state = xb._rng.bit_generator.state
        got = xb.read_conductances()
        sigma = cfg.read_noise + xb.read_noise_extra
        noisy = xb.resistance * (1.0 + twin.normal(0.0, sigma, size=xb.shape))
        assert got.tobytes() == (1.0 / np.maximum(noisy, 1e-3)).tobytes()
        assert xb._rng.bit_generator.state == twin.bit_generator.state


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
