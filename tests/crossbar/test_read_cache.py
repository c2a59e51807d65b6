"""The crossbar's state-versioned read cache (DESIGN.md §9).

Every mutating operation must bump ``state_version`` and invalidate the
cached conductances, while pure reads must not.
"""

import numpy as np
import pytest

from repro.crossbar import Crossbar
from repro.device import DeviceConfig
from repro.device.faults import FaultModel, inject_faults
from tests.oracles import uncached_reads


class TestCrossbarStateVersion:
    def make(self, **kwargs):
        cfg = DeviceConfig(pulses_to_collapse=500, **kwargs)
        return Crossbar(4, 4, cfg, seed=3)

    def test_every_mutation_bumps_version(self):
        xb = self.make(write_noise=0.1)
        v0 = xb.state_version
        xb.program(np.full((4, 4), 5e4))
        v1 = xb.state_version
        assert v1 > v0
        ones = np.ones((4, 4), dtype=int)
        xb.program_pulses(ones != 0, ones)
        v2 = xb.state_version
        assert v2 > v1
        xb.step_conductance(ones)
        v3 = xb.state_version
        assert v3 > v2
        xb.apply_drift(0.05)
        v4 = xb.state_version
        assert v4 > v3
        inject_faults(xb, FaultModel(rate_lrs=0.2), seed=1)
        assert xb.state_version > v4

    def test_reads_do_not_bump_version(self):
        xb = self.make()
        xb.program(np.full((4, 4), 5e4))
        version = xb.state_version
        xb.conductances()
        xb.read_conductances()
        xb.read_resistances()
        xb.aged_bounds()
        xb.dead_mask()
        assert xb.state_version == version

    def test_conductance_cache_hit_and_invalidation(self):
        xb = self.make()
        xb.program(np.full((4, 4), 5e4))
        g1 = xb.conductances()
        g2 = xb.conductances()
        assert g1 is g2  # cached object between mutations
        xb.apply_drift(0.05)
        g3 = xb.conductances()
        assert g3 is not g1
        np.testing.assert_array_equal(g3, 1.0 / xb.resistance)

    def test_cached_conductances_are_correct_and_readonly(self):
        xb = self.make()
        xb.program(np.full((4, 4), 5e4))
        g = xb.conductances()
        np.testing.assert_array_equal(g, 1.0 / xb.resistance)
        with pytest.raises(ValueError):
            g[0, 0] = 1.0

    def test_mark_state_dirty_invalidates(self):
        xb = self.make()
        xb.program(np.full((4, 4), 5e4))
        g1 = xb.conductances()
        xb.resistance[...] = 6e4  # in-place edit bypasses the setter
        xb.mark_state_dirty()
        g2 = xb.conductances()
        assert g2 is not g1
        np.testing.assert_array_equal(g2, 1.0 / xb.resistance)

    def test_cache_disabled_is_bitwise_identical(self):
        with uncached_reads() as calls:
            xb_off = self.make()
            xb_off.program(np.full((4, 4), 5e4))
            g_off = xb_off.conductances().copy()
        assert calls["Crossbar.conductances"] > 0
        xb_on = self.make()
        xb_on.program(np.full((4, 4), 5e4))
        np.testing.assert_array_equal(xb_on.conductances(), g_off)

    def test_noisy_reads_bypass_cache(self):
        xb = self.make(read_noise=0.05)
        xb.program(np.full((4, 4), 5e4))
        r1 = xb.read_conductances()
        r2 = xb.read_conductances()
        assert not np.array_equal(r1, r2)  # fresh noise per read

    def test_fault_noise_injection_bypasses_cache(self):
        xb = self.make()
        xb.program(np.full((4, 4), 5e4))
        xb.conductances()
        xb.read_noise_extra = 0.05  # fault schedule turns noise on
        r1 = xb.read_conductances()
        r2 = xb.read_conductances()
        assert not np.array_equal(r1, r2)

    def test_caching_preserves_rng_stream(self):
        """Reads draw no RNG, so interleaving them must not perturb any
        random stream — the property that keeps goldens identical."""

        def run(with_reads: bool) -> np.ndarray:
            xb = self.make(write_noise=0.1)
            xb.program(np.full((4, 4), 5e4))
            if with_reads:
                xb.conductances()
                xb.read_conductances()
            xb.apply_drift(0.05)
            xb.step_conductance(np.ones((4, 4), dtype=int))
            return xb.resistance.copy()

        np.testing.assert_array_equal(run(True), run(False))


class TestCacheToggle:
    def test_toggle_returns_prior(self):
        """Leaving the uncached oracle restores the cached read path."""
        xb = Crossbar(4, 4, DeviceConfig(), seed=3)
        with uncached_reads():
            assert xb.conductances() is not xb.conductances()
        assert xb.conductances() is xb.conductances()
