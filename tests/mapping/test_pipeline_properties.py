"""Hypothesis property tests across the mapping pipeline."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.levels import LevelGrid
from repro.mapping.linear import LinearWeightMapping
from repro.mapping.quantize import quantize_weights

WEIGHTS = st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=40)


class TestQuantizePipeline:
    @given(w=WEIGHTS, n_levels=st.integers(4, 64))
    @settings(max_examples=60, deadline=None)
    def test_quantization_is_idempotent(self, w, n_levels):
        """Quantizing an already-quantized matrix is a no-op — the
        program-and-verify controller relies on this to skip pulses."""
        grid = LevelGrid(1e4, 1e5, n_levels)
        mapping = LinearWeightMapping(-1.0, 1.0, 1e-5, 1e-4)
        arr = np.asarray(w)
        once = quantize_weights(arr, mapping, grid)
        twice = quantize_weights(once, mapping, grid)
        np.testing.assert_allclose(twice, once, atol=1e-9)

    @given(w=WEIGHTS)
    @settings(max_examples=40, deadline=None)
    def test_quantization_preserves_ordering(self, w):
        """Monotone map + monotone rounding: order of distinct weights
        is never inverted (ties may collapse)."""
        grid = LevelGrid(1e4, 1e5, 32)
        mapping = LinearWeightMapping(-1.0, 1.0, 1e-5, 1e-4)
        arr = np.sort(np.asarray(w))
        q = quantize_weights(arr, mapping, grid)
        assert np.all(np.diff(q) >= -1e-9)

    @given(
        w=WEIGHTS,
        hi_steps=st.integers(8, 31),
    )
    @settings(max_examples=40, deadline=None)
    def test_aged_quantization_never_exceeds_window(self, w, hi_steps):
        grid = LevelGrid(1e4, 1e5, 32)
        mapping = LinearWeightMapping(-1.0, 1.0, 1e-5, 1e-4)
        aged_max = 1e4 + hi_steps * grid.step
        arr = np.asarray(w)
        targets = np.asarray(mapping.weight_to_resistance(arr))
        achieved = grid.quantize(targets, 1e4, aged_max)
        assert np.all(achieved <= aged_max + 1e-6)
        assert np.all(achieved >= 1e4 - 1e-6)
