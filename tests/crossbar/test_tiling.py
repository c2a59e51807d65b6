"""Unit tests for tiled logical matrices."""

import numpy as np
import pytest

from repro.crossbar import TiledMatrix
from repro.exceptions import ConfigurationError, ShapeError


@pytest.fixture()
def tiled(device_config):
    return TiledMatrix(10, 7, tile_rows=4, tile_cols=3, config=device_config, seed=1)


class TestGeometry:
    def test_validation(self, device_config):
        with pytest.raises(ConfigurationError):
            TiledMatrix(0, 5, config=device_config)
        with pytest.raises(ConfigurationError):
            TiledMatrix(5, 5, tile_rows=0, config=device_config)

    def test_grid_shape(self, tiled):
        assert tiled.grid_shape == (3, 3)
        assert tiled.shape == (10, 7)

    def test_edge_tiles_are_smaller(self, tiled):
        sizes = [(t.rows, t.cols) for _rs, _cs, t in tiled.iter_tiles()]
        assert (4, 3) in sizes
        assert (2, 1) in sizes  # bottom-right remainder

    def test_slices_cover_matrix(self, tiled):
        covered = np.zeros(tiled.shape, dtype=int)
        for rs, cs, _tile in tiled.iter_tiles():
            covered[rs, cs] += 1
        np.testing.assert_array_equal(covered, np.ones(tiled.shape, dtype=int))

    def test_single_tile_when_large_enough(self, device_config):
        tm = TiledMatrix(5, 5, tile_rows=128, tile_cols=128, config=device_config)
        assert tm.grid_shape == (1, 1)


class TestOperations:
    def test_program_and_read(self, tiled, rng):
        targets = rng.uniform(2e4, 8e4, tiled.shape)
        assert tiled.program_targets(targets) == 70
        achieved = 1.0 / tiled.read_conductances()
        assert np.max(np.abs(achieved - targets)) <= tiled.config.make_level_grid().step

    def test_program_pulses_routes_to_tiles(self, tiled):
        tiled.program_targets(np.full(tiled.shape, 5e4))
        polarity = np.zeros(tiled.shape, dtype=int)
        polarity[9, 6] = 1  # inside the bottom-right remainder tile
        before = tiled.read_conductances()
        assert tiled.program_pulses(polarity) == 1
        after = tiled.read_conductances()
        assert after[9, 6] > before[9, 6]
        assert np.count_nonzero(after != before) == 1

    def test_program_pulses_shape_check(self, tiled):
        with pytest.raises(ShapeError):
            tiled.program_pulses(np.ones((2, 2), dtype=int))
        assert tiled.pulse_totals() == 0

    def test_program_targets_shape_check(self, tiled):
        with pytest.raises(ShapeError):
            tiled.program_targets(np.full((3, 3), 5e4))
        assert tiled.pulse_totals() == 0

    def test_read_assembles_tile_conductances(self, tiled, rng):
        tiled.program_targets(rng.uniform(2e4, 8e4, tiled.shape))
        g = tiled.read_conductances()
        for rs, cs, tile in tiled.iter_tiles():
            assert g[rs, cs].tobytes() == (1.0 / tile.resistance).tobytes()

    def test_pulse_totals_aggregate(self, tiled):
        tiled.program_targets(np.full(tiled.shape, 5e4))
        assert tiled.pulse_totals() == 70

    def test_program_targets_only_changed_skips_settled_devices(self, tiled):
        targets = np.full(tiled.shape, 5e4)
        assert tiled.program_targets(targets) == 70
        assert tiled.program_targets(targets) == 0
        assert tiled.program_targets(targets, only_changed=False) == 70
        assert tiled.pulse_totals() == 140

    def test_state_version_moves_with_every_operation(self, tiled):
        versions = [tiled.state_version]
        tiled.program_targets(np.full(tiled.shape, 5e4))
        versions.append(tiled.state_version)
        tiled.program_pulses(np.ones(tiled.shape, dtype=int))
        versions.append(tiled.state_version)
        tiled.apply_drift(0.1)
        versions.append(tiled.state_version)
        assert versions == sorted(set(versions))
        tiled.read_conductances()
        tiled.aged_bounds()
        tiled.dead_mask()
        assert tiled.state_version == versions[-1]

    def test_aged_bounds_shape(self, tiled):
        lo, hi = tiled.aged_bounds()
        assert lo.shape == hi.shape == tiled.shape

    def test_aged_bounds_assemble_tile_bounds(self, tiled):
        polarity = np.zeros(tiled.shape, dtype=int)
        polarity[::2, ::3] = 1
        for _ in range(20):
            tiled.program_pulses(polarity)
        lo, hi = tiled.aged_bounds()
        for rs, cs, tile in tiled.iter_tiles():
            tlo, thi = tile.aged_bounds()
            assert lo[rs, cs].tobytes() == tlo.tobytes()
            assert hi[rs, cs].tobytes() == thi.tobytes()

    def test_dead_mask_assembles_tile_masks(self, tiled):
        # Wear out the bottom-right remainder tile only.
        _rs, _cs, last = list(tiled.iter_tiles())[-1]
        low = np.full(last.shape, tiled.config.r_min)
        for _ in range(10_000):
            if last.dead_fraction() == 1.0:
                break
            last.program(low, only_changed=False)
        mask = tiled.dead_mask()
        for rs, cs, tile in tiled.iter_tiles():
            np.testing.assert_array_equal(mask[rs, cs], tile.dead_mask())
        assert mask[8:, 6:].all()
        assert np.count_nonzero(mask) == last.rows * last.cols
        assert tiled.dead_fraction() == pytest.approx(mask.mean())

    def test_drift_applies_everywhere(self, tiled):
        tiled.program_targets(np.full(tiled.shape, 5e4))
        before = tiled.read_conductances()
        assert tiled.apply_drift(0.1) is None
        after = tiled.read_conductances()
        assert (after != before).mean() > 0.9

    def test_dead_fraction_zero_fresh(self, tiled):
        assert tiled.dead_fraction() == 0.0
