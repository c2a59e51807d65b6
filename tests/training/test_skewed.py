"""Unit tests for skewed-weight training (Section IV-A)."""

import numpy as np
import pytest
from scipy import stats

from repro.exceptions import ConfigurationError
from repro.nn import Sequential
from repro.training import (
    SkewedTrainingConfig,
    TrainConfig,
    build_mlp,
    distribution_skewness,
    layer_betas,
    skewed_train,
    train_baseline,
)
from repro.training.skewed import SKEW_BATCH_SIZE


@pytest.fixture()
def skew_config():
    return SkewedTrainingConfig(
        beta_scale=-1.0,
        lambda1=0.05,
        lambda2=1e-3,
        pretrain=TrainConfig(epochs=15),
        skew_epochs=10,
    )


class TestConfig:
    def test_rejects_inverted_lambdas(self):
        with pytest.raises(ConfigurationError):
            SkewedTrainingConfig(lambda1=0.01, lambda2=0.1)

    def test_rejects_zero_epochs(self):
        with pytest.raises(ConfigurationError):
            SkewedTrainingConfig(skew_epochs=0)

    def test_default_pretrain_created(self):
        cfg = SkewedTrainingConfig()
        assert cfg.pretrain.epochs >= 1


class TestLayerBetas:
    def test_one_beta_per_weighted_layer(self, trained_mlp):
        betas = layer_betas(trained_mlp, -1.0)
        assert set(betas) == {0, 2}

    def test_scale_applies(self, trained_mlp):
        b1 = layer_betas(trained_mlp, -1.0)
        b2 = layer_betas(trained_mlp, -2.0)
        for idx in b1:
            assert b2[idx] == pytest.approx(2 * b1[idx])
            assert b1[idx] < 0


class TestSkewedTrain:
    def test_skew_phase_uses_the_fixed_minibatch(self, blob_dataset, skew_config,
                                                 monkeypatch):
        """Pre-training batches at its config's size, the skewed phase
        at ``SKEW_BATCH_SIZE``."""
        sizes = []
        fit = Sequential.fit

        def spy(self, *args, **kwargs):
            sizes.append(kwargs["batch_size"])
            return fit(self, *args, **kwargs)

        monkeypatch.setattr(Sequential, "fit", spy)
        skew_config.pretrain.batch_size = 16
        skewed_train(build_mlp(4, 3, hidden=(8,), seed=1), blob_dataset, skew_config)
        assert sizes == [16, SKEW_BATCH_SIZE]

    def test_two_phase_histories(self, blob_dataset, skew_config):
        model = build_mlp(4, 3, hidden=(16,), seed=1)
        result = skewed_train(model, blob_dataset, skew_config)
        assert len(result.pretrain_history.loss) == 15
        assert len(result.skew_history.loss) == 10
        assert result.betas

    def test_pretrained_skips_first_phase(self, blob_dataset, skew_config, trained_mlp):
        from repro.mapping.network import clone_model

        model = clone_model(trained_mlp)
        result = skewed_train(model, blob_dataset, skew_config, pretrained=True)
        assert result.pretrain_history.loss == []

    def test_accuracy_roughly_maintained(self, blob_dataset, skew_config):
        """The paper's flexibility claim: skewed training keeps the
        classification quality."""
        model = build_mlp(4, 3, hidden=(16,), seed=2)
        result = skewed_train(model, blob_dataset, skew_config)
        assert result.final_accuracy() > 0.85

    def test_distribution_moves_left_of_baseline(self, blob_dataset, skew_config):
        """Weights concentrate towards the reference (negative) side:
        the mass position within [w_min, w_max] drops."""
        base = build_mlp(4, 3, hidden=(16,), seed=3)
        train_baseline(base, blob_dataset, TrainConfig(epochs=15))
        w_base = base.all_weight_values()
        pos_base = (np.median(w_base) - w_base.min()) / (w_base.max() - w_base.min())

        skew = build_mlp(4, 3, hidden=(16,), seed=3)
        skewed_train(skew, blob_dataset, skew_config)
        w_skew = skew.all_weight_values()
        pos_skew = (np.median(w_skew) - w_skew.min()) / (w_skew.max() - w_skew.min())
        assert pos_skew < pos_base

    def test_right_skewness_increases(self, blob_dataset, skew_config):
        base = build_mlp(4, 3, hidden=(16,), seed=4)
        train_baseline(base, blob_dataset, TrainConfig(epochs=15))
        skew = build_mlp(4, 3, hidden=(16,), seed=4)
        skewed_train(skew, blob_dataset, skew_config)
        assert distribution_skewness(skew.all_weight_values()) > distribution_skewness(
            base.all_weight_values()
        )


class TestSkewness:
    def test_symmetric_is_zero(self, rng):
        w = rng.normal(size=100_000)
        assert abs(distribution_skewness(w)) < 0.05

    def test_right_skew_positive(self, rng):
        w = rng.gamma(2.0, 1.0, size=10_000)
        assert distribution_skewness(w) > 0.5

    def test_degenerate_inputs(self):
        assert distribution_skewness(np.array([1.0, 2.0])) == 0.0
        assert distribution_skewness(np.full(10, 3.0)) == 0.0


SAMPLES = {
    "normal": lambda gen: gen.normal(0.0, 1.0, 500),
    "gamma": lambda gen: gen.gamma(2.0, 1.0, 500),
    "lognormal": lambda gen: gen.lognormal(0.0, 0.6, 500),
    "exponential": lambda gen: gen.exponential(1.0, 500),
    "uniform": lambda gen: gen.uniform(-1.0, 1.0, 500),
    "beta": lambda gen: gen.beta(2.0, 5.0, 500),
    "tiny": lambda gen: gen.normal(0.0, 1.0, 3),
}


@pytest.mark.parametrize("kind", sorted(SAMPLES))
class TestSkewnessAgainstScipy:
    """The adjusted Fisher-Pearson coefficient is scipy's bias-corrected
    sample skewness; the sign convention makes a mirrored sample flip."""

    def test_matches_scipy_bias_corrected(self, kind):
        w = SAMPLES[kind](np.random.default_rng(7))
        assert distribution_skewness(w) == pytest.approx(
            stats.skew(w, bias=False), rel=1e-9, abs=1e-12
        )

    def test_mirror_flips_sign(self, kind):
        w = SAMPLES[kind](np.random.default_rng(8))
        assert distribution_skewness(-w) == pytest.approx(
            -distribution_skewness(w), rel=1e-9, abs=1e-12
        )
