"""Tests for mapping-level quantization prediction, including the
paper's core claim: skewed distributions quantize better (Fig. 3/6)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.levels import LevelGrid
from repro.mapping.linear import LinearWeightMapping
from repro.mapping.quantize import quantization_error, quantize_weights


@pytest.fixture()
def grid():
    return LevelGrid(1e4, 1e5, 32)


@pytest.fixture()
def mapping():
    return LinearWeightMapping(-1.0, 1.0, 1e-5, 1e-4)


class TestQuantizeWeights:
    def test_levels_are_fixed_points(self, grid, mapping):
        r_levels = grid.resistance_levels
        w_levels = np.asarray(mapping.resistance_to_weight(r_levels))
        out = quantize_weights(w_levels, mapping, grid)
        np.testing.assert_allclose(out, w_levels, atol=1e-9)

    def test_output_shape(self, grid, mapping, rng):
        w = rng.uniform(-1, 1, size=(6, 4))
        assert quantize_weights(w, mapping, grid).shape == (6, 4)

    def test_aged_window_clips(self, grid, mapping):
        """With an aged upper bound, large-resistance (small) weights
        collapse to the bound's weight value."""
        aged_max = 5e4
        w = np.array([-0.9])  # maps to large resistance
        out = quantize_weights(w, mapping, grid, aged_min=1e4, aged_max=aged_max)
        assert out[0] > -0.9  # pushed towards larger conductance/weight


class TestQuantizationError:
    def test_zero_for_exact_levels(self, grid, mapping):
        w_levels = np.asarray(mapping.resistance_to_weight(grid.resistance_levels))
        assert quantization_error(w_levels, mapping, grid) < 1e-12

    def test_more_levels_less_error(self, mapping, rng):
        w = rng.uniform(-1, 1, 500)
        coarse = quantization_error(w, mapping, LevelGrid(1e4, 1e5, 8))
        fine = quantization_error(w, mapping, LevelGrid(1e4, 1e5, 64))
        assert fine < coarse

    def test_skewed_distribution_quantizes_better(self, grid, rng):
        """THE Fig. 3/6 claim: a distribution concentrated at small
        (algebraically low) weights — i.e. large resistances, where the
        conductance levels are dense — has lower quantization error
        than a quasi-normal one over the same weight range."""
        lo, hi = -1.0, 1.0
        normal = np.clip(rng.normal(0.0, 0.35, 4000), lo, hi)
        # Skewed: mass near the low end, thin tail to the right.
        skewed = np.clip(lo + rng.gamma(1.5, 0.12, 4000) * (hi - lo), lo, hi)
        mapping = LinearWeightMapping(lo, hi, 1e-5, 1e-4)
        err_normal = quantization_error(normal, mapping, grid)
        err_skewed = quantization_error(skewed, mapping, grid)
        assert err_skewed < err_normal

    @given(n_levels=st.integers(4, 64))
    @settings(max_examples=30, deadline=None)
    def test_error_bounded_by_coarsest_gap(self, n_levels):
        """Property: RMS error never exceeds the largest conductance
        gap expressed in weight units."""
        rng = np.random.default_rng(0)
        grid = LevelGrid(1e4, 1e5, n_levels)
        mapping = LinearWeightMapping(-1.0, 1.0, 1e-5, 1e-4)
        w = rng.uniform(-1, 1, 300)
        err = quantization_error(w, mapping, grid)
        g_levels = np.sort(grid.conductance_levels)
        max_gap_w = np.max(np.diff(g_levels)) / mapping.slope
        assert err <= max_gap_w


@pytest.mark.parametrize("n_levels", [4, 8, 16, 32, 64])
class TestReachableWeights:
    """The weights a device can hold are the images of the resistance
    levels under the inverse of Eq. (4)."""

    @staticmethod
    def _level_weights(n_levels):
        grid = LevelGrid(1e4, 1e5, n_levels)
        mapping = LinearWeightMapping(-1.0, 1.0, 1e-5, 1e-4)
        return grid, mapping, np.sort(mapping.resistance_to_weight(grid.resistance_levels))

    def test_quantized_weights_are_fixed_points(self, n_levels, rng):
        grid, mapping, _ = self._level_weights(n_levels)
        q = quantize_weights(rng.uniform(-1.2, 1.2, 400), mapping, grid)
        np.testing.assert_allclose(quantize_weights(q, mapping, grid), q, atol=1e-12)

    def test_quantized_weights_are_level_images(self, n_levels, rng):
        grid, mapping, reachable = self._level_weights(n_levels)
        q = quantize_weights(rng.uniform(-1.2, 1.2, 400), mapping, grid)
        assert np.abs(q[:, None] - reachable[None, :]).min(axis=1).max() < 1e-12
        assert reachable[0] == pytest.approx(-1.0) and reachable[-1] == pytest.approx(1.0)

    def test_levels_are_densest_at_small_weights(self, n_levels):
        """Fig. 3(c): uniform resistance levels crowd the conductance (and
        so the weight) axis at its low end, which is where skewed training
        moves the weights."""
        _, _, reachable = self._level_weights(n_levels)
        assert np.all(np.diff(np.diff(reachable)) > 0)
