"""``Layer.build`` is idempotent for every layer type.

A repeat build at the input shape a layer was built for returns the
same output shape and draws nothing: the parameter arrays are the same
objects with the same bytes, so optimizer moments and mapped crossbars
that hold them stay valid.  A build at another shape raises
``ShapeError`` and leaves the layer as it was.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.nn import Activation, Conv2D, Dense, Flatten, MaxPool2D
from repro.nn.layers.pool import AvgPool2D

#: name -> (factory, input shape, another input shape it accepts when fresh).
LAYERS = {
    "activation": (lambda: Activation("relu"), (4,), (5,)),
    "avgpool": (lambda: AvgPool2D(2), (1, 4, 4), (1, 6, 6)),
    "conv2d": (lambda: Conv2D(2, 3), (1, 5, 5), (1, 6, 6)),
    "conv2d-padded": (lambda: Conv2D(2, 3, padding=1), (2, 4, 4), (2, 5, 5)),
    "dense": (lambda: Dense(3), (4,), (5,)),
    "flatten": (lambda: Flatten(), (2, 3, 3), (2, 4, 4)),
    "maxpool": (lambda: MaxPool2D(2), (1, 4, 4), (1, 6, 6)),
}


def _params(layer):
    return {name: (array, array.tobytes()) for name, array in getattr(layer, "params", {}).items()}


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_repeat_build_draws_nothing(name):
    factory, shape, _other = LAYERS[name]
    layer = factory()
    out = layer.build(shape, np.random.default_rng(0))
    before = _params(layer)
    assert layer.build(shape, np.random.default_rng(1)) == out
    after = _params(layer)
    assert after.keys() == before.keys()
    for key, (array, data) in before.items():
        assert after[key][0] is array
        assert after[key][1] == data
    assert layer.input_shape == shape


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_build_at_another_shape_raises(name):
    factory, shape, other = LAYERS[name]
    factory().build(other, np.random.default_rng(0))  # a fresh layer accepts it
    layer = factory()
    out = layer.build(shape, np.random.default_rng(0))
    before = _params(layer)
    with pytest.raises(ShapeError):
        layer.build(other, np.random.default_rng(1))
    assert layer.input_shape == shape
    assert layer.output_shape() == out
    assert {key: value[1] for key, value in _params(layer).items()} == {
        key: value[1] for key, value in before.items()
    }
