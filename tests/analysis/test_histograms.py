"""Unit tests for distribution analyses."""

import numpy as np
import pytest

from repro.analysis import (
    resistance_histogram,
    summarize_distribution,
    weight_histogram,
)
from repro.exceptions import ConfigurationError
from repro.mapping import LinearWeightMapping


@pytest.fixture()
def mapping():
    return LinearWeightMapping(-1.0, 1.0, 1e-5, 1e-4)


class TestSummary:
    def test_moments(self, rng):
        v = rng.normal(2.0, 0.5, 10_000)
        s = summarize_distribution(v)
        assert s.mean == pytest.approx(2.0, abs=0.05)
        assert s.std == pytest.approx(0.5, abs=0.05)
        assert s.n == 10_000
        assert abs(s.skewness) < 0.1

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize_distribution(np.array([]))


class TestHistograms:
    def test_weight_histogram_counts(self, rng):
        w = rng.normal(size=500)
        edges, counts = weight_histogram(w, bins=20)
        assert len(edges) == 21
        assert counts.sum() == 500

    def test_resistance_histogram_in_range(self, mapping, rng):
        w = rng.uniform(-1, 1, 300)
        edges, counts = resistance_histogram(w, mapping, bins=10)
        assert counts.sum() == 300
        assert edges[0] >= 1e4 - 1e-6
        assert edges[-1] <= 1e5 + 1e-6

    def test_fig3_reciprocal_shape(self, mapping, rng):
        """A symmetric weight distribution produces a resistance
        distribution skewed towards low resistance — the Fig. 3(b)
        shape."""
        w = np.clip(rng.normal(0.0, 0.3, 5000), -1, 1)
        edges, counts = resistance_histogram(w, mapping, bins=20)
        centers = 0.5 * (edges[:-1] + edges[1:])
        mean_r = np.average(centers, weights=counts)
        midpoint = 0.5 * (edges[0] + edges[-1])
        assert mean_r < midpoint
