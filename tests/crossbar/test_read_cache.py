"""The crossbar's state version and read path (DESIGN.md §9).

Every mutating operation must bump ``state_version``, the key of the
network's read memo, while pure reads must not; noise-free reads must
draw no RNG and noisy reads must sample afresh every call.
"""

import numpy as np

from repro.crossbar import Crossbar
from repro.device import DeviceConfig


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
        xb.program_targets(np.full((4, 4), 6e4))
        v2 = xb.state_version
        assert v2 > v1
        xb.program_pulses(np.ones((4, 4), dtype=int))
        v3 = xb.state_version
        assert v3 > v2
        xb.apply_drift(0.05)
        v4 = xb.state_version
        assert v4 > v3
        stuck = np.zeros((4, 4), dtype=bool)
        stuck[0, 0] = True
        xb.pin_stuck(stuck, np.zeros_like(stuck))
        assert xb.state_version > v4

    def test_reads_do_not_bump_version(self):
        xb = self.make()
        xb.program(np.full((4, 4), 5e4))
        version = xb.state_version
        xb.conductances()
        xb.read_conductances()
        xb.aged_bounds()
        xb.dead_mask()
        assert xb.state_version == version

    def test_cached_conductances_are_correct_and_readonly(self):
        xb = self.make()
        xb.program(np.full((4, 4), 5e4))
        g = xb.conductances()
        np.testing.assert_array_equal(g, 1.0 / xb.resistance)

    def test_pin_stuck_invalidates(self):
        """Pinning bumps the state version and drops the stress caches:
        the pinned devices read their stuck values and count as dead."""
        xb = self.make()
        xb.program(np.full((4, 4), 5e4))
        assert not xb.dead_mask().any()  # fills the stress caches
        version = xb.state_version
        lrs = np.zeros((4, 4), dtype=bool)
        hrs = np.zeros((4, 4), dtype=bool)
        lrs[0, 0], hrs[1, 1] = True, True
        xb.pin_stuck(lrs, hrs)
        assert xb.state_version > version
        np.testing.assert_array_equal(xb.conductances(), 1.0 / xb.resistance)
        np.testing.assert_array_equal(xb.dead_mask(), lrs | hrs)

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
            xb.program_pulses(np.ones((4, 4), dtype=int))
            return xb.resistance.copy()

        np.testing.assert_array_equal(run(True), run(False))
