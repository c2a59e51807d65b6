"""Copies of a layer carry state, never its forward-pass caches.

Every pickle, cloudpickle, ``copy.deepcopy`` and ``copy.copy`` of a
layer goes through ``Layer.__getstate__``, which sets each name in the
class's ``_transient`` tuple to ``None``.  Checked here for every layer
class the ``repro.nn.layers`` modules define, exported or not, after a
training forward + backward:

* each transient attribute of the copy is ``None``;
* parameters and gradients are bitwise equal to the original's;
* the copy's next forward + backward is bitwise equal to that of an
  identically built and stepped twin of the original.

A completeness check makes a new layer declare what its ``forward``
fills for ``backward``: any attribute that is ``None`` (or absent) on a
freshly built layer and set by its first ``forward`` must be transient.
"""

from __future__ import annotations

import copy
import inspect
import pickle

import cloudpickle
import numpy as np
import pytest

from repro.nn import layers as L
from repro.nn.layers.pool import AvgPool2D

#: name -> (factory, single-sample input shape).  Factories are seeded,
#: so two calls build bitwise-identical layers.
CASES = {
    "Activation": (lambda: L.Activation("relu"), (6,)),
    "AvgPool2D": (lambda: AvgPool2D(2), (2, 6, 6)),
    "Conv2D": (lambda: L.Conv2D(4, 3, stride=1, padding=1), (2, 6, 6)),
    "Dense": (lambda: L.Dense(3), (7,)),
    "Flatten": (lambda: L.Flatten(), (2, 3, 3)),
    "MaxPool2D": (lambda: L.MaxPool2D(2), (2, 6, 6)),
}

COPIES = {
    "pickle": lambda layer: pickle.loads(pickle.dumps(layer)),
    "cloudpickle": lambda layer: cloudpickle.loads(cloudpickle.dumps(layer)),
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
}

BATCH = 4


def _build(case):
    factory, shape = CASES[case]
    layer = factory()
    layer.build(shape, rng=np.random.default_rng(11))
    return layer, shape


def _step(layer, shape, seed):
    """One training forward + backward on seeded data; returns both outputs."""
    rng = np.random.default_rng(seed)
    out = layer.forward(rng.standard_normal((BATCH,) + shape), training=True)
    dx = layer.backward(rng.standard_normal(out.shape))
    return out, dx


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _state(layer) -> dict:
    """Everything a copy must carry, as comparable arrays or values."""
    out = {f"param.{k}": v for k, v in layer.params.items()}
    out.update({f"grad.{k}": v for k, v in layer.grads.items()})
    return out


def _assert_same_state(copy_state, original_state):
    assert copy_state.keys() == original_state.keys()
    for key, value in original_state.items():
        assert _same(copy_state[key], value), key


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_layer_class_has_a_case():
    defined = {
        cls.__name__
        for cls in _subclasses(L.Layer)
        if cls.__module__.startswith("repro.nn.layers.")
        and not cls.__name__.startswith("_")
        and cls is not L.ParamLayer
    }
    exported = {
        name
        for name, obj in vars(L).items()
        if inspect.isclass(obj) and issubclass(obj, L.Layer)
    }
    assert exported - {"Layer", "ParamLayer"} <= defined
    assert defined == {case.split("-")[0] for case in CASES}


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("case", sorted(CASES))
def test_copy_carries_state_not_caches(case, how):
    layer, shape = _build(case)
    _step(layer, shape, seed=1)
    assert any(getattr(layer, name, None) is not None for name in layer._transient)
    before = _state(layer)

    clone = COPIES[how](layer)

    assert clone is not layer
    for name in type(layer)._transient:
        assert getattr(clone, name) is None, name
    _assert_same_state(_state(clone), before)
    # Copying neither drops nor changes the original's caches.
    _assert_same_state(_state(layer), before)

    twin, _ = _build(case)
    _step(twin, shape, seed=1)
    expected_out, expected_dx = _step(twin, shape, seed=2)
    out, dx = _step(clone, shape, seed=2)
    assert _same(out, expected_out)
    assert _same(dx, expected_dx)
    _assert_same_state(_state(clone), _state(twin))


@pytest.mark.parametrize("case", sorted(CASES))
def test_forward_caches_are_declared_transient(case):
    layer, shape = _build(case)
    fresh = dict(vars(layer))
    x = np.random.default_rng(0).standard_normal((BATCH,) + shape)
    layer.forward(x, training=True)
    filled = {
        name
        for name, value in vars(layer).items()
        if value is not None and fresh.get(name) is None
    }
    assert filled, "forward should fill a cache for backward"
    assert filled <= set(type(layer)._transient), (
        f"{type(layer).__name__}.forward sets {sorted(filled)}; "
        "declare them in _transient"
    )
