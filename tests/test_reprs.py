"""Reprs name the class and its settings, and never raise.

Several reprs read live state (a crossbar's pulse and dead counts, a
network's pulse total), so a repr is only safe
to print from a debugger or a log line if it is exercised.
"""

from __future__ import annotations

import pytest

from repro.crossbar import Crossbar, TiledMatrix
from repro.device import DeviceConfig, LevelGrid
from repro.mapping import AgingAwareMapper, FreshMapper, LinearWeightMapping, MappedNetwork
from repro.mitigation import PulseShaping, SeriesResistor
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, Sequential
from repro.nn.activations import ReLU
from repro.nn.initializers import GlorotNormal
from repro.nn.layers.pool import AvgPool2D
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optimizers import SGD, Adam
from repro.nn.regularizers import L2Regularizer, SkewedL2Regularizer


def _network():
    model = Sequential([Dense(2)], seed=1).build((3,))
    return MappedNetwork(model, DeviceConfig(), seed=0)


CASES = {
    "dense": (lambda: Dense(3), "Dense(units=3, use_bias=True)"),
    "conv2d": (lambda: Conv2D(4, 3), "Conv2D(filters=4, kernel_size=3, stride=1, padding=0)"),
    "max_pool": (lambda: MaxPool2D(2), "MaxPool2D(pool_size=2)"),
    "avg_pool": (lambda: AvgPool2D(3), "AvgPool2D(pool_size=3)"),
    "flatten": (Flatten, "Flatten()"),
    "relu": (ReLU, "ReLU()"),
    "cross_entropy": (SoftmaxCrossEntropy, "SoftmaxCrossEntropy()"),
    "sgd": (lambda: SGD(lr=0.1), "SGD(lr=0.1)"),
    "adam": (Adam, "Adam(lr=0.001)"),
    "l2": (lambda: L2Regularizer(0.01), "L2Regularizer(lam=0.01)"),
    "skewed_l2": (
        lambda: SkewedL2Regularizer(-1.0, 0.05, 0.001),
        "SkewedL2Regularizer(beta=-1.0, lambda1=0.05, lambda2=0.001)",
    ),
    "glorot": (GlorotNormal, "GlorotNormal()"),
    "fresh_mapper": (FreshMapper, "FreshMapper()"),
    "aging_aware_mapper": (
        lambda: AgingAwareMapper(max_candidates=3),
        "AgingAwareMapper(max_candidates=3)",
    ),
    "linear_mapping": (
        lambda: LinearWeightMapping(-1.0, 1.0, 1e-5, 1e-4),
        "LinearWeightMapping(w=[-1, 1], g=[1e-05, 0.0001])",
    ),
    "level_grid": (
        lambda: LevelGrid(1e4, 1e5, 8),
        "LevelGrid(r_min=10000, r_max=100000, n_levels=8)",
    ),
    "crossbar": (lambda: Crossbar(2, 3, seed=0), "Crossbar(2x3, pulses=0, dead=0.0%)"),
    "tiled_matrix": (
        lambda: TiledMatrix(5, 5, 4, 4, seed=0),
        "TiledMatrix(5x5 as 2x2 tiles)",
    ),
    "mapped_network": (_network, "MappedNetwork(layers=1, pulses=0)"),
    "mapped_layer": (
        lambda: _network().layers[0],
        "MappedLayer(index=0, kind=dense, matrix=(3, 2))",
    ),
    "pulse_shaping": (lambda: PulseShaping("dc"), "PulseShaping('dc')"),
    "series_resistor": (lambda: SeriesResistor(100.0), "SeriesResistor(r_series=100)"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_repr(name):
    make, expected = CASES[name]
    assert repr(make()) == expected
