"""Unit tests for the hot-path kernel layer (DESIGN.md §9).

Covers the NodalSolver equivalences, the FactorizationCache protocol,
and the Crossbar state-version integration: every mutating operation
must bump the version and invalidate the cached conductances and
factorization, while pure reads must not.
"""

import numpy as np
import pytest

from repro.core.kernels import (
    FactorizationCache,
    NodalSolver,
    assemble_nodal_matrix,
)
from repro.core.profiling import PROFILER
from repro.crossbar import Crossbar
from repro.crossbar.parasitics import ParasiticModel, solve_crossbar_nodal
from repro.device import DeviceConfig
from repro.device.faults import FaultModel, inject_faults
from repro.exceptions import ConfigurationError, ShapeError
from tests.oracles import uncached_reads


@pytest.fixture()
def small_g(rng):
    return rng.uniform(1e-5, 1e-4, size=(6, 5))


@pytest.fixture()
def caches_off():
    with uncached_reads() as calls:
        yield calls


class TestNodalSolver:
    def test_transfer_matrix_shape_and_readonly(self, small_g):
        solver = NodalSolver(small_g, 10.0)
        assert solver.transfer_matrix.shape == (6, 5)
        with pytest.raises(ValueError):
            solver.transfer_matrix[0, 0] = 1.0

    def test_zero_wire_is_ideal(self, small_g, rng):
        solver = NodalSolver(small_g, 0.0)
        v = rng.uniform(0, 1, 6)
        np.testing.assert_allclose(solver.solve(v), v @ small_g)

    def test_matches_reference_solver(self, small_g, rng):
        v = rng.uniform(0, 1, 6)
        solver = NodalSolver(small_g, 15.0)
        np.testing.assert_array_equal(
            solver.solve(v), solve_crossbar_nodal(small_g, v, ParasiticModel(15.0))
        )

    def test_batch_is_bitwise_row_stable(self, small_g, rng):
        solver = NodalSolver(small_g, 8.0)
        v_batch = rng.uniform(0, 1, size=(10, 6))
        batched = solver.solve(v_batch)
        for k in range(10):
            np.testing.assert_array_equal(batched[k], solver.solve(v_batch[k]))

    def test_single_vector_returns_1d(self, small_g, rng):
        solver = NodalSolver(small_g, 5.0)
        assert solver.solve(rng.uniform(0, 1, 6)).shape == (5,)
        assert solver.solve(rng.uniform(0, 1, (3, 6))).shape == (3, 5)

    def test_validation(self, small_g):
        with pytest.raises(ShapeError):
            NodalSolver(np.ones(4), 1.0)
        with pytest.raises(ConfigurationError):
            NodalSolver(small_g, -1.0)
        with pytest.raises(ShapeError):
            NodalSolver(small_g, 1.0).solve(np.ones(4))

    def test_assembled_matrix_is_symmetric(self, small_g):
        a = assemble_nodal_matrix(small_g, 0.1).toarray()
        np.testing.assert_allclose(a, a.T)


class TestFactorizationCache:
    def test_hit_on_same_version(self, small_g):
        cache = FactorizationCache()
        builds = []

        def build():
            builds.append(1)
            return NodalSolver(small_g, 5.0)

        s1 = cache.get(3, 5.0, build)
        s2 = cache.get(3, 5.0, build)
        assert s1 is s2
        assert len(builds) == 1

    def test_rebuild_on_version_change(self, small_g):
        cache = FactorizationCache()
        s1 = cache.get(1, 5.0, lambda: NodalSolver(small_g, 5.0))
        s2 = cache.get(2, 5.0, lambda: NodalSolver(small_g, 5.0))
        assert s1 is not s2

    def test_separate_slots_per_r_wire(self, small_g):
        cache = FactorizationCache()
        cache.get(1, 5.0, lambda: NodalSolver(small_g, 5.0))
        cache.get(1, 9.0, lambda: NodalSolver(small_g, 9.0))
        assert len(cache) == 2

    def test_invalidate_clears(self, small_g):
        cache = FactorizationCache()
        cache.get(1, 5.0, lambda: NodalSolver(small_g, 5.0))
        cache.invalidate()
        assert len(cache) == 0

    def test_disabled_cache_rebuilds(self, small_g, caches_off):
        cache = FactorizationCache()
        s1 = cache.get(1, 5.0, lambda: NodalSolver(small_g, 5.0))
        s2 = cache.get(1, 5.0, lambda: NodalSolver(small_g, 5.0))
        assert s1 is not s2
        assert len(cache) == 0


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
        xb.step_levels(np.ones((4, 4), dtype=int))
        v2 = xb.state_version
        assert v2 > v1
        xb.step_conductance(np.ones((4, 4), dtype=int))
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
        xb.vmm(np.ones(4))
        xb.vmm_ir_drop(np.ones(4), ParasiticModel(5.0), exact=True)
        xb.nodal_solver(ParasiticModel(5.0))
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

    def test_solver_cache_reused_until_mutation(self):
        xb = self.make()
        xb.program(np.full((4, 4), 5e4))
        model = ParasiticModel(5.0)
        s1 = xb.nodal_solver(model)
        assert xb.nodal_solver(model) is s1
        xb.step_levels(np.ones((4, 4), dtype=int))
        assert xb.nodal_solver(model) is not s1

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
            out_off = xb_off.vmm_ir_drop(np.ones(4), ParasiticModel(5.0), exact=True)
            g_off = xb_off.conductances().copy()
        assert calls["FactorizationCache.get"] > 0
        xb_on = self.make()
        xb_on.program(np.full((4, 4), 5e4))
        out_on = xb_on.vmm_ir_drop(np.ones(4), ParasiticModel(5.0), exact=True)
        np.testing.assert_array_equal(out_on, out_off)
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
                xb.vmm(np.ones(4))
                xb.nodal_solver(ParasiticModel(5.0))
            xb.apply_drift(0.05)
            xb.step_levels(np.ones((4, 4), dtype=int))
            return xb.resistance.copy()

        np.testing.assert_array_equal(run(True), run(False))

    def test_vmm_counter_increments(self):
        xb = self.make()
        xb.program(np.full((4, 4), 5e4))
        before = PROFILER.counter("crossbar.vmm_calls")
        xb.vmm(np.ones(4))
        assert PROFILER.counter("crossbar.vmm_calls") == before + 1


class TestCacheToggle:
    def test_toggle_returns_prior(self):
        """Leaving the uncached oracle restores the cached read path."""
        xb = Crossbar(4, 4, DeviceConfig(), seed=3)
        with uncached_reads():
            assert xb.conductances() is not xb.conductances()
        assert xb.conductances() is xb.conductances()
