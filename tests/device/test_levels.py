"""Unit + property tests for the quantized level grid (Fig. 3/4)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.device.levels import LevelGrid
from repro.exceptions import ConfigurationError


def usable_levels(grid: LevelGrid, aged_min: float, aged_max: float) -> np.ndarray:
    """Reference for ``usable_count``: fresh-grid levels inside the aged window."""
    levels = grid.resistance_levels
    return levels[(levels >= aged_min) & (levels <= aged_max)]


@pytest.fixture()
def grid():
    return LevelGrid(1e4, 1e5, n_levels=32)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LevelGrid(0.0, 1e5)
        with pytest.raises(ConfigurationError):
            LevelGrid(1e5, 1e4)
        with pytest.raises(ConfigurationError):
            LevelGrid(1e4, 1e5, n_levels=1)

    def test_resistance_levels_uniform(self, grid):
        levels = grid.resistance_levels
        assert levels[0] == 1e4 and levels[-1] == 1e5
        np.testing.assert_allclose(np.diff(levels), grid.step)

    def test_conductance_levels_nonuniform_and_descending(self, grid):
        """Fig. 3(c): the reciprocal levels crowd at small conductance."""
        g = grid.conductance_levels
        assert np.all(np.diff(g) < 0)
        gaps = -np.diff(g)
        assert gaps[0] > 10 * gaps[-1]  # dense at the high-R end


class TestQuantization:
    def test_exact_levels_are_fixed_points(self, grid):
        for r in grid.resistance_levels:
            assert grid.quantize(float(r)) == pytest.approx(r)

    def test_rounds_to_nearest(self, grid):
        r = 1e4 + 0.4 * grid.step
        assert grid.quantize(r) == pytest.approx(1e4)
        r = 1e4 + 0.6 * grid.step
        assert grid.quantize(r) == pytest.approx(1e4 + grid.step)

    def test_clips_to_grid(self, grid):
        assert grid.quantize(1.0) == pytest.approx(1e4)
        assert grid.quantize(1e7) == pytest.approx(1e5)

    def test_index_value_roundtrip(self, grid):
        for i in (0, 7, 31):
            assert grid.index_of(grid.value_of(i)) == i

    def test_vectorized(self, grid, rng):
        r = rng.uniform(1e4, 1e5, size=(4, 5))
        q = grid.quantize(r)
        assert q.shape == (4, 5)
        assert np.all(np.abs(q - r) <= grid.step / 2 + 1e-9)


class TestAgedQuantization:
    def test_clipping_to_aged_window(self, grid):
        """Fig. 4: a target above the aged upper bound lands on the
        highest usable level below it."""
        aged_max = 1e4 + 5.4 * grid.step
        achieved = grid.quantize(9e4, aged_min=1e4, aged_max=aged_max)
        assert achieved == pytest.approx(1e4 + 5 * grid.step)

    def test_no_usable_level_falls_back_to_clipped(self, grid):
        lo = 1e4 + 0.2 * grid.step
        hi = 1e4 + 0.6 * grid.step  # window between two levels
        achieved = grid.quantize(9e4, aged_min=lo, aged_max=hi)
        assert lo <= achieved <= hi

    def test_snap_below_window_pushed_up(self, grid):
        lo = 1e4 + 0.8 * grid.step
        hi = 1e4 + 2.2 * grid.step
        achieved = grid.quantize(1e4, aged_min=lo, aged_max=hi)
        assert achieved == pytest.approx(1e4 + grid.step)


class TestUsableLevels:
    def test_full_window(self, grid):
        assert grid.usable_count(1e4, 1e5) == 32
        assert len(usable_levels(grid, 1e4, 1e5)) == 32

    def test_shrinking_window_loses_top_levels(self, grid):
        """Fig. 4: as the window shrinks from the top, usable level
        count decreases stepwise."""
        counts = [
            grid.usable_count(1e4, 1e5 - (k - 0.5) * grid.step) for k in range(1, 10)
        ]
        assert counts == [32 - k for k in range(1, 10)]

    def test_collapsed_window(self, grid):
        assert grid.usable_count(5e4, 4e4) == 0

    def test_vectorized_counts(self, grid):
        his = np.array([1e5, 5e4, 1e4])
        counts = grid.usable_count(np.full(3, 1e4), his)
        assert counts.tolist() == [32, grid.usable_count(1e4, 5e4), 1]


class TestProperties:
    @given(
        r=st.floats(1e3, 2e5),
        n=st.integers(2, 128),
    )
    @settings(max_examples=80, deadline=None)
    def test_quantize_within_half_step(self, r, n):
        grid = LevelGrid(1e4, 1e5, n)
        q = grid.quantize(r)
        clipped = min(max(r, 1e4), 1e5)
        assert abs(q - clipped) <= grid.step / 2 + 1e-6

    @given(
        lo_steps=st.floats(0.0, 15.0),
        hi_steps=st.floats(16.0, 31.0),
        target=st.floats(1e4, 1e5),
    )
    @settings(max_examples=80, deadline=None)
    # The aged floor sits 2.9e-6 above level 0, inside the grid's
    # relative tolerance, so level 0 is kept.
    @example(lo_steps=1e-9, hi_steps=16.0, target=1e4)
    def test_aged_quantize_stays_in_window(self, lo_steps, hi_steps, target):
        grid = LevelGrid(1e4, 1e5, 32)
        lo = 1e4 + lo_steps * grid.step
        hi = 1e4 + hi_steps * grid.step
        q = grid.quantize(target, aged_min=lo, aged_max=hi)
        assert lo - grid.tolerance <= q <= hi + grid.tolerance


GRID_SIZES = [2, 3, 8, 32, 64]


@pytest.mark.parametrize("n_levels", GRID_SIZES)
class TestAcrossGridSizes:
    """Invariants that must hold for every level count, not only the
    32-level default: the paper's lifetime hinges on how many levels an
    aged window still holds."""

    def test_usable_count_matches_usable_levels(self, n_levels, rng):
        """The closed-form count equals the levels the mask keeps."""
        grid = LevelGrid(1e4, 1e5, n_levels)
        los = rng.uniform(5e3, 1.1e5, 200)
        his = rng.uniform(5e3, 1.1e5, 200)
        counts = grid.usable_count(los, his)
        for lo, hi, count in zip(los, his, counts):
            expected = 0 if hi < lo else len(usable_levels(grid, lo, hi))
            assert count == expected

    def test_levels_count_as_usable_on_exact_bounds(self, n_levels):
        grid = LevelGrid(1e4, 1e5, n_levels)
        levels = grid.resistance_levels
        for k in range(n_levels):
            assert grid.usable_count(levels[0], levels[k]) == k + 1
            assert grid.usable_count(levels[k], levels[-1]) == n_levels - k

    def test_quantize_is_idempotent(self, n_levels, rng):
        grid = LevelGrid(1e4, 1e5, n_levels)
        r = rng.uniform(0.5e4, 1.5e5, 500)
        once = grid.quantize(r)
        np.testing.assert_array_equal(grid.quantize(once), once)

    def test_quantized_values_are_grid_levels(self, n_levels, rng):
        grid = LevelGrid(1e4, 1e5, n_levels)
        q = grid.quantize(rng.uniform(0.5e4, 1.5e5, 500))
        distance = np.abs(q[:, None] - grid.resistance_levels[None, :]).min(axis=1)
        assert distance.max() <= 1e-9 * grid.step

    def test_conductance_levels_are_reciprocal_and_descending(self, n_levels):
        grid = LevelGrid(1e4, 1e5, n_levels)
        g = grid.conductance_levels
        np.testing.assert_allclose(g * grid.resistance_levels, 1.0, rtol=1e-15)
        assert np.all(np.diff(g) < 0)
        assert g[0] == pytest.approx(1e-4) and g[-1] == pytest.approx(1e-5)
