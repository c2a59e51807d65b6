"""The freshly built parameters of the shipped networks, pinned bit for bit.

Every kernel is drawn from the model's generator in layer order (He
normal for conv, Glorot uniform for dense) and every bias starts at
zero.  A change to the draw order or to the scale arithmetic shows here
before it moves a trained weight or a result digest; the per-layer
checks name the first layer where it moved.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.nn import Conv2D
from repro.nn.initializers import glorot_uniform, he_normal
from repro.rng import ensure_rng
from repro.training.networks import build_lenet, build_mlp, build_vggnet

#: name -> (factory, SHA-256 of its initial parameters).
PINNED = {
    "lenet": (
        lambda: build_lenet(seed=0),
        "598efd248a6cdbfb17009bdc7ccf355a87cf244cc0275c470b309d58e9c510ce",
    ),
    "vggnet-6": (
        lambda: build_vggnet(width=6, seed=0),
        "9c6efc6e8146402e5eea843a1b2bf9d0c7438853b799331fe613156ac087d479",
    ),
    "vggnet-8": (
        lambda: build_vggnet(seed=0),
        "9872f02efcefe45c75cb439ca0689bc4f435ef9429f34e447d8025606ce6e8c5",
    ),
    "mlp": (
        lambda: build_mlp(6, 3, hidden=(24,), seed=7),
        "43d4545ca2a6393320f75760106b796e987b5b7d4e32708340c2ba3de539f25c",
    ),
}


def params_digest(model) -> str:
    """SHA-256 over each layer in order, each parameter name in sorted
    order, then its C-contiguous bytes."""
    digest = hashlib.sha256()
    for layer in model.layers:
        for name in sorted(layer.params):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(layer.params[name]).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_initial_parameters_are_pinned(name):
    factory, expected = PINNED[name]
    assert params_digest(factory()) == expected


#: name -> the seed its ``PINNED`` factory builds with.
SEEDS = {"lenet": 0, "vggnet-6": 0, "vggnet-8": 0, "mlp": 7}

#: ``(network, layer index)`` of every weighted layer of every pinned network.
WEIGHTED = [
    (name, index)
    for name in sorted(PINNED)
    for index, _layer in PINNED[name][0]().weighted_layers()
]


def _case_id(case) -> str:
    return f"{case[0]}-layer{case[1]}"


@pytest.mark.parametrize("case", WEIGHTED, ids=_case_id)
def test_kernel_is_the_layers_draw_in_build_order(case):
    """Replaying the model's generator through the weighted layers up to
    this one gives its kernel bit for bit: He normal for a conv kernel,
    Glorot uniform for a dense one."""
    name, index = case
    model = PINNED[name][0]()
    rng = ensure_rng(SEEDS[name])
    for i, layer in model.weighted_layers():
        init = he_normal if isinstance(layer, Conv2D) else glorot_uniform
        expected = init(layer.params["W"].shape, rng)
        if i == index:
            break
    kernel = layer.params["W"]
    assert kernel.dtype == np.float64 and kernel.flags.c_contiguous
    assert kernel.tobytes() == expected.tobytes()


@pytest.mark.parametrize("case", WEIGHTED, ids=_case_id)
def test_bias_starts_at_positive_zero(case):
    name, index = case
    layer = PINNED[name][0]().layers[index]
    bias = layer.params["b"]
    assert bias.dtype == np.float64
    assert bias.shape == (layer.params["W"].shape[0 if isinstance(layer, Conv2D) else 1],)
    assert bias.tobytes() == np.zeros(bias.shape).tobytes()
