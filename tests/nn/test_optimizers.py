"""Unit tests for optimizers."""

import copy
import pickle

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn import Activation, Dense, Sequential
from repro.nn.optimizers import BETA1, SGD, Adam
from tests.nn.helpers import Tanh


def quadratic_descent(optimizer, steps=500, start=5.0):
    """Minimize f(x) = x^2 and return the final |x|."""
    x = np.array([start])
    for _ in range(steps):
        optimizer.step([(x, 2.0 * x)])
    return float(np.abs(x[0]))


class TestValidation:
    @pytest.mark.parametrize("cls", [SGD, Adam])
    def test_rejects_nonpositive_lr(self, cls):
        with pytest.raises(ConfigurationError):
            cls(lr=0.0)


class TestConvergence:
    @pytest.mark.parametrize(
        "optimizer",
        [SGD(0.1), Adam(0.3)],
        ids=["sgd", "adam"],
    )
    def test_minimizes_quadratic(self, optimizer):
        assert quadratic_descent(optimizer) < 1e-2


class TestMechanics:
    @pytest.mark.parametrize("cls", [SGD, Adam])
    def test_step_counts_iterations(self, cls):
        opt = cls(0.1)
        x = np.array([1.0])
        for _ in range(3):
            opt.step([(x, np.array([1.0]))])
        assert opt.iterations == 3

    def test_sgd_step_is_lr_times_grad(self):
        opt = SGD(0.5)
        x, y = np.array([1.0, 2.0]), np.array([[3.0]])
        opt.step([(x, np.array([1.0, -1.0])), (y, np.array([[2.0]]))])
        np.testing.assert_allclose(x, [0.5, 2.5])
        np.testing.assert_allclose(y, [[2.0]])

    def test_adam_first_step_is_approximately_lr(self):
        opt = Adam(lr=0.1)
        x, y = np.array([1.0]), np.array([[2.0, 3.0]])
        opt.step([(x, np.array([1e-4])), (y, np.array([[-5.0, 1e3]]))])
        # Bias correction makes the first step ~lr regardless of grad scale.
        assert x[0] == pytest.approx(1.0 - 0.1, abs=1e-3)
        np.testing.assert_allclose(y, [[2.1, 2.9]], atol=1e-3)

    def test_moments_cover_every_parameter_in_order(self):
        opt = Adam(0.1)
        a, b = np.zeros((2, 2)), np.zeros(3)
        opt.step([(a, np.full((2, 2), 2.0)), (b, np.array([4.0, 6.0, 8.0]))])
        want = np.array([2.0] * 4 + [4.0, 6.0, 8.0]) * (1.0 - BETA1)
        np.testing.assert_array_equal(opt._state["m"], want)

    def test_moments_belong_to_the_parameter_list(self):
        """A step over another list of arrays starts fresh moments."""
        opt, fresh = Adam(0.1), Adam(0.1)
        a, b = np.array([1.0]), np.array([1.0])
        opt.step([(a, np.array([1.0]))])
        opt.step([(b, np.array([-3.0]))])
        fresh.iterations = 1
        c = np.array([1.0])
        fresh.step([(c, np.array([-3.0]))])
        assert b.tobytes() == c.tobytes()

    def test_reset_clears_state(self):
        opt = Adam(0.1)
        x = np.array([1.0])
        opt.step([(x, np.array([1.0]))])
        assert opt._state
        opt.reset()
        assert opt.iterations == 0
        assert opt._state == {}


COPIES = {
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    "deepcopy": copy.deepcopy,
}


def _trained_mlp(optimizer, steps=3):
    """A seeded MLP after ``steps`` optimizer steps on seeded batches."""
    model = Sequential(
        [Dense(6), Activation(Tanh()), Dense(3)], optimizer=optimizer, seed=0
    ).build((4,))
    _train(model, range(steps))
    return model


def _train(model, seeds):
    for seed in seeds:
        rng = np.random.default_rng(seed)
        model.train_batch(rng.normal(size=(5, 4)), np.eye(3)[rng.integers(0, 3, 5)])


class TestCopies:
    """Moments are keyed by ``id`` of the original's parameter arrays, so
    pickles and copies carry none; everything else travels."""

    @pytest.mark.parametrize("how", sorted(COPIES))
    def test_copy_carries_no_moments(self, how):
        model = _trained_mlp(Adam(0.01))
        clone = COPIES[how](model)
        original, copied = model.optimizer, clone.optimizer
        assert original._state  # the original keeps its moments
        assert copied._state == {}
        assert vars(copied).keys() == vars(original).keys()
        for key, value in vars(original).items():
            if key != "_state":
                assert getattr(copied, key) == value, key

    @pytest.mark.parametrize("how", sorted(COPIES))
    def test_training_a_copy_matches_a_reset_optimizer(self, how):
        clone = COPIES[how](_trained_mlp(Adam(0.01)))
        twin = _trained_mlp(Adam(0.01))
        iterations = twin.optimizer.iterations
        twin.optimizer.reset()
        twin.optimizer.iterations = iterations
        _train(clone, range(3, 6))
        _train(twin, range(3, 6))
        for got, want in zip(clone.get_weights(), twin.get_weights()):
            for key in want:
                assert got[key].tobytes() == want[key].tobytes()
