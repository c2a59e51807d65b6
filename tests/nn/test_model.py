"""Unit tests for the Sequential model."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn import (
    Activation,
    Adam,
    Dense,
    L2Regularizer,
    Sequential,
    SkewedL2Regularizer,
)
from repro.training.networks import build_lenet, build_vggnet


@pytest.fixture()
def tiny_model():
    return Sequential(
        [Dense(8), Activation("relu"), Dense(3)], optimizer=Adam(0.01), seed=7
    ).build((4,))


@pytest.fixture()
def batch(rng):
    x = rng.normal(size=(16, 4))
    y = np.eye(3)[rng.integers(0, 3, 16)]
    return x, y


class TestConstruction:
    def test_requires_layers(self):
        with pytest.raises(ConfigurationError):
            Sequential([])

    def test_forward_before_build_raises(self):
        model = Sequential([Dense(2)])
        with pytest.raises(ConfigurationError, match="not built"):
            model.forward(np.zeros((1, 4)))

    def test_weighted_layers(self, tiny_model):
        assert [i for i, _l in tiny_model.weighted_layers()] == [0, 2]


class TestRegularizers:
    def test_single_regularizer_applies_to_all(self, tiny_model):
        tiny_model.set_regularizers(L2Regularizer(0.1))
        assert tiny_model.regularizer_for(0) is not None
        assert tiny_model.regularizer_for(2) is not None
        assert tiny_model.regularization_penalty() > 0

    def test_per_layer_mapping(self, tiny_model):
        reg = SkewedL2Regularizer(0.0, 1.0, 0.1)
        tiny_model.set_regularizers({0: reg})
        assert tiny_model.regularizer_for(0) is reg
        assert tiny_model.regularizer_for(2) is None

    def test_rejects_non_weighted_index(self, tiny_model):
        with pytest.raises(ConfigurationError):
            tiny_model.set_regularizers({1: L2Regularizer()})

    def test_rejects_out_of_range_index(self, tiny_model):
        with pytest.raises(ConfigurationError):
            tiny_model.set_regularizers({99: L2Regularizer()})

    def test_clear(self, tiny_model):
        tiny_model.set_regularizers(L2Regularizer(0.1))
        tiny_model.set_regularizers(None)
        assert tiny_model.regularization_penalty() == 0.0


class TestTraining:
    def test_fit_reduces_loss(self, tiny_model, batch):
        x, y = batch
        history = tiny_model.fit(x, y, epochs=30, batch_size=8)
        assert history.loss[-1] < history.loss[0]
        assert len(history.loss) == 30

    def test_fit_validates_lengths(self, tiny_model, batch):
        x, y = batch
        with pytest.raises(ShapeError):
            tiny_model.fit(x, y[:-1], epochs=1)

    def test_fit_rejects_empty_input(self, tiny_model):
        before = tiny_model.get_weights()
        rng_state = tiny_model._rng.bit_generator.state
        with pytest.raises(ShapeError, match="at least one sample"):
            tiny_model.fit(np.empty((0, 4)), np.empty((0, 3)), epochs=1)
        for got, want in zip(tiny_model.get_weights(), before):
            for key in want:
                assert np.array_equal(got[key], want[key])
        assert tiny_model._rng.bit_generator.state == rng_state

    def test_validation_metrics_recorded(self, tiny_model, batch):
        x, y = batch
        history = tiny_model.fit(x, y, epochs=2, validation_data=(x, y))
        assert len(history.val_accuracy) == 2


class TestPredictEvaluate:
    def test_predict_shape_and_batching(self, tiny_model, rng):
        x = rng.normal(size=(30, 4))
        out = tiny_model.predict(x, batch_size=7)
        assert out.shape == (30, 3)

    def test_predict_empty_input(self, tiny_model):
        out = tiny_model.predict(np.empty((0, 4)))
        assert out.shape == (0, 3)
        assert out.dtype == np.float64

    @pytest.mark.parametrize(
        "build, shape",
        [
            (lambda: build_lenet(seed=0), (1, 12, 12)),
            (lambda: build_vggnet(width=6, seed=0), (1, 16, 16)),
        ],
    )
    def test_predict_empty_input_conv(self, build, shape):
        model = build()
        x = np.empty((0,) + shape)
        assert model.predict(x).shape == (0,) + model.layers[-1].output_shape()
        for stop in range(1, len(model.layers)):
            prefix = model.predict(x, stop=stop)
            assert prefix.shape == (0,) + model.layers[stop - 1].output_shape()
            suffix = model.predict(prefix, start=stop)
            assert suffix.shape == (0,) + model.layers[-1].output_shape()

    def test_evaluate_consistency(self, tiny_model, batch):
        x, y = batch
        loss, acc = tiny_model.evaluate(x, y)
        assert 0.0 <= acc <= 1.0
        assert loss > 0
        assert tiny_model.score(x, y) == acc


class TestWeightSnapshots:
    def test_roundtrip(self, tiny_model, batch):
        x, y = batch
        snap = tiny_model.get_weights()
        before = tiny_model.predict(x)
        tiny_model.fit(x, y, epochs=3)
        assert not np.allclose(before, tiny_model.predict(x))
        tiny_model.set_weights(snap)
        np.testing.assert_allclose(tiny_model.predict(x), before)

    def test_snapshot_is_a_copy(self, tiny_model):
        snap = tiny_model.get_weights()
        snap[0]["W"][...] = 99.0
        assert not np.any(tiny_model.layers[0].params["W"] == 99.0)

    def test_set_weights_length_check(self, tiny_model):
        with pytest.raises(ShapeError):
            tiny_model.set_weights([])

    def test_all_weight_values_size(self, tiny_model):
        flat = tiny_model.all_weight_values()
        assert flat.size == 4 * 8 + 8 * 3  # weights only, no biases


class TestDeterminism:
    def test_same_seed_same_training(self, batch):
        x, y = batch

        def run():
            m = Sequential(
                [Dense(8), Activation("relu"), Dense(3)], optimizer=Adam(0.01), seed=3
            ).build((4,))
            m.fit(x, y, epochs=5, batch_size=4)
            return m.predict(x)

        np.testing.assert_array_equal(run(), run())
