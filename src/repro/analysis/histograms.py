"""Weight and resistance distribution extraction (Fig. 3/6/9)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.mapping.linear import LinearWeightMapping
from repro.training.skewed import distribution_skewness


@dataclass
class DistributionSummary:
    """Moments + skewness of a sample, for table output."""

    mean: float
    std: float
    minimum: float
    maximum: float
    skewness: float
    n: int


def summarize_distribution(values: np.ndarray) -> DistributionSummary:
    """Summary statistics of a flat sample."""
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise ConfigurationError("cannot summarize an empty sample")
    return DistributionSummary(
        mean=float(v.mean()),
        std=float(v.std()),
        minimum=float(v.min()),
        maximum=float(v.max()),
        skewness=distribution_skewness(v),
        n=int(v.size),
    )


def weight_histogram(
    weights: np.ndarray, bins: int = 40
) -> Tuple[np.ndarray, np.ndarray]:
    """``(bin_edges, counts)`` of a weight sample — Fig. 3(a)/6(a)/9."""
    w = np.asarray(weights, dtype=np.float64).ravel()
    counts, edges = np.histogram(w, bins=bins)
    return edges, counts


def resistance_histogram(
    weights: np.ndarray, mapping: LinearWeightMapping, bins: int = 40
) -> Tuple[np.ndarray, np.ndarray]:
    """Histogram of the mapped resistances — Fig. 3(b)/6(b)."""
    r = np.asarray(mapping.weight_to_resistance(np.asarray(weights).ravel()))
    counts, edges = np.histogram(r, bins=bins)
    return edges, counts
