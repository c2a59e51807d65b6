"""The extension points of ``repro.nn`` leave their contract methods to
subclasses: calling one on the base class raises ``NotImplementedError``
instead of silently returning ``None``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.activations import ActivationFunction
from repro.nn.layers.base import Layer
from repro.nn.optimizers import Optimizer
from repro.nn.regularizers import Regularizer

_X = np.ones((2, 3))

CALLS = {
    "activation.forward": lambda: ActivationFunction().forward(_X),
    "activation.backward": lambda: ActivationFunction().backward(_X, _X, _X),
    "optimizer.step": lambda: Optimizer().step([(_X, _X)]),
    "regularizer.penalty": lambda: Regularizer().penalty(_X),
    "regularizer.gradient": lambda: Regularizer().gradient(_X),
    "layer.forward": lambda: Layer().forward(_X),
    "layer.backward": lambda: Layer().backward(_X),
}


@pytest.mark.parametrize("call", sorted(CALLS))
def test_base_method_is_abstract(call):
    with pytest.raises(NotImplementedError):
        CALLS[call]()
