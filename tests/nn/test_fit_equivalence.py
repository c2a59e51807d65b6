"""Bit-identity battery: ``Sequential.fit`` against the loop it replaced.

``fit`` used to score the whole training set after every epoch to fill
``history.accuracy``.  It now counts the correct predictions in the
logits each training step already computes.  Scoring changes no
parameter, optimizer state or model RNG, so every trained weight, every
``history.loss`` and every ``val_*`` entry must equal the old loop's
bit for bit; only ``history.accuracy`` changes meaning, to the running
minibatch accuracy at pre-update weights.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import make_glyph_digits, make_textured_shapes
from repro.nn import Sequential, SkewedL2Regularizer
from repro.nn.model import TrainingHistory
from repro.training.networks import build_lenet, build_vggnet

#: name -> (seeded network factory, dataset factory); the shapes of the
#: LeNet role and of the fast VGG preset.
SHAPES = {
    "lenet": (
        lambda seed: build_lenet(seed=seed),
        lambda: make_glyph_digits(n_train=45, n_test=20, seed=11),
    ),
    "vggnet-fast": (
        lambda seed: build_vggnet(width=6, seed=seed),
        lambda: make_textured_shapes(n_train=45, n_test=20, seed=21),
    ),
}

BATCH_SIZE = 8  # 45 samples: five full batches and a ragged one


def reference_fit(model: Sequential, x, y, epochs, batch_size, validation_data=None):
    """The former ``fit``: ``train_batch`` steps, then a training-set score.

    Returns the history that loop built and, per epoch, the running
    accuracy counted by hand from each batch's pre-update logits.
    """
    history = TrainingHistory()
    running = []
    n = len(x)
    for _ in range(epochs):
        order = model._rng.permutation(n)
        epoch_cost = 0.0
        n_batches = 0
        correct = 0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            logits = model.forward(x[idx], training=True)
            correct += sum(
                int(np.argmax(row) == np.argmax(target))
                for row, target in zip(logits, y[idx])
            )
            epoch_cost += model.train_batch(x[idx], y[idx])
            n_batches += 1
        history.loss.append(epoch_cost / max(1, n_batches))
        history.accuracy.append(model.score(x, y, batch_size=max(batch_size, 256)))
        running.append(correct / n)
        if validation_data is not None:
            val_loss, val_acc = model.evaluate(*validation_data)
            history.val_loss.append(val_loss)
            history.val_accuracy.append(val_acc)
    return history, running


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@pytest.fixture(scope="module", params=sorted(SHAPES))
def shape(request):
    build, make_data = SHAPES[request.param]
    return build, make_data()


@pytest.mark.parametrize("validate", [False, True])
def test_fit_matches_reference_loop(shape, validate):
    build, data = shape
    skew = SkewedL2Regularizer(beta=0.05, lambda1=3e-3, lambda2=1e-4)
    fast, ref = build(5), build(5)
    fast.set_regularizers(skew)
    ref.set_regularizers(skew)
    val = (data.x_test, data.y_test) if validate else None
    x, y = data.x_train, data.y_train

    got = fast.fit(x, y, epochs=3, batch_size=BATCH_SIZE, validation_data=val)
    want, running = reference_fit(ref, x, y, 3, BATCH_SIZE, validation_data=val)

    for got_layer, want_layer in zip(fast.get_weights(), ref.get_weights()):
        assert got_layer.keys() == want_layer.keys()
        for key in want_layer:
            assert _bits(got_layer[key]) == _bits(want_layer[key])
    assert got.loss == want.loss
    assert got.val_loss == want.val_loss
    assert got.val_accuracy == want.val_accuracy
    assert len(got.val_accuracy) == (3 if validate else 0)
    assert got.accuracy == running
    # Both generators are at the same point: the next permutation agrees.
    assert (fast._rng.permutation(7) == ref._rng.permutation(7)).all()

