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
        tiled.program(targets)
        achieved = tiled.resistances()
        assert np.max(np.abs(achieved - targets)) <= tiled.config.make_level_grid().step

    def test_program_shape_check(self, tiled):
        with pytest.raises(ShapeError):
            tiled.program(np.full((3, 3), 5e4))

    def test_step_conductance_routes_to_tiles(self, tiled):
        tiled.program(np.full(tiled.shape, 5e4))
        directions = np.zeros(tiled.shape, dtype=int)
        directions[9, 6] = 1  # inside the bottom-right remainder tile
        before = tiled.resistances()
        tiled.step_conductance(directions)
        after = tiled.resistances()
        assert after[9, 6] < before[9, 6]
        assert np.count_nonzero(after != before) == 1

    def test_step_conductance_shape_check(self, tiled):
        with pytest.raises(ShapeError):
            tiled.step_conductance(np.zeros((2, 2), dtype=int))

    def test_pulse_totals_aggregate(self, tiled):
        tiled.program(np.full(tiled.shape, 5e4))
        assert tiled.pulse_totals() == 70

    def test_aged_bounds_shape(self, tiled):
        lo, hi = tiled.aged_bounds()
        assert lo.shape == hi.shape == tiled.shape

    def test_drift_applies_everywhere(self, tiled):
        tiled.program(np.full(tiled.shape, 5e4))
        before = tiled.resistances()
        tiled.apply_drift(0.1)
        after = tiled.resistances()
        assert (after != before).mean() > 0.9

    def test_dead_fraction_zero_fresh(self, tiled):
        assert tiled.dead_fraction() == 0.0
