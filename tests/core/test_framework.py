"""Unit tests for the Fig. 5 framework orchestration."""

import pytest

from repro.core import AgingAwareFramework, FrameworkConfig, LifetimeConfig
from repro.data import make_blobs
from repro.device import DeviceConfig
from repro.exceptions import ConfigurationError
from repro.training import SkewedTrainingConfig, TrainConfig, build_mlp
from repro.tuning import TuningConfig


@pytest.fixture(scope="module")
def framework():
    data = make_blobs(n_samples=240, n_classes=3, n_features=4, spread=0.4, seed=3)
    config = FrameworkConfig(
        device=DeviceConfig(pulses_to_collapse=100, write_noise=0.05),
        train=TrainConfig(epochs=12),
        skewed=SkewedTrainingConfig(
            beta_scale=-1.0,
            lambda1=0.05,
            lambda2=1e-3,
            pretrain=TrainConfig(epochs=12),
            skew_epochs=6,
        ),
        lifetime=LifetimeConfig(
            apps_per_window=1000,
            max_windows=4,
            tuning=TuningConfig(max_iterations=25),
        ),
        tune_samples=96,
        target_fraction=0.9,
    )
    return AgingAwareFramework(
        lambda seed: build_mlp(4, 3, hidden=(16,), seed=seed), data, config, seed=7
    )


class TestConfigValidation:
    def test_target_fraction_range(self):
        with pytest.raises(ConfigurationError):
            FrameworkConfig(target_fraction=0.0)

    def test_tune_samples_positive(self):
        with pytest.raises(ConfigurationError):
            FrameworkConfig(tune_samples=0)


class TestTrainingCache:
    def test_models_cached_per_style(self, framework):
        a = framework.trained_model(False)
        b = framework.trained_model(False)
        assert a is b
        c = framework.trained_model(True)
        assert c is not a

    @pytest.mark.parametrize("skewed", [False, True])
    def test_software_accuracy_is_the_test_score(self, skewed):
        # Overlapping blobs and short training keep every accuracy below
        # 1, so a training-set or running accuracy would not pass.
        data = make_blobs(n_samples=240, n_classes=3, n_features=4, spread=1.5, seed=5)
        config = FrameworkConfig(
            train=TrainConfig(epochs=3),
            skewed=SkewedTrainingConfig(pretrain=TrainConfig(epochs=3), skew_epochs=2),
        )
        framework = AgingAwareFramework(
            lambda seed: build_mlp(4, 3, hidden=(16,), seed=seed), data, config, seed=7
        )
        model = framework.trained_model(skewed)
        accuracy = framework.software_accuracy(skewed)
        assert accuracy == model.score(data.x_test, data.y_test)
        assert accuracy != model.score(data.x_train, data.y_train)

    def test_software_accuracy_reasonable(self, framework):
        assert framework.software_accuracy(False) > 0.85
        assert framework.software_accuracy(True) > 0.85


class TestScenarios:
    def test_unknown_scenario_rejected(self, framework):
        with pytest.raises(ConfigurationError):
            framework.run_scenario("nope")

    def test_run_scenario_returns_result(self, framework):
        result = framework.run_scenario("t+t")
        assert result.scenario_key == "t+t"
        assert result.software_accuracy > 0.8
        assert result.target_accuracy <= result.software_accuracy
        assert result.windows

    def test_repeats_must_be_positive(self, framework):
        with pytest.raises(ConfigurationError, match="repeats"):
            framework.run_scenario_repeats("t+t", repeats=0)

    @pytest.mark.parametrize("fraction", [0.9, 1.0])
    def test_target_is_a_fraction_of_software_accuracy(self, fraction):
        """The tuning target is ``target_fraction`` times the software
        accuracy, capped at 0.999; the configured
        ``lifetime.tuning.target_accuracy`` never reaches the tuner."""
        data = make_blobs(n_samples=120, n_classes=3, n_features=4, spread=0.4, seed=3)
        config = FrameworkConfig(
            train=TrainConfig(epochs=10),
            lifetime=LifetimeConfig(
                apps_per_window=1000,
                max_windows=1,
                tuning=TuningConfig(target_accuracy=0.5, max_iterations=5),
            ),
            tune_samples=48,
            target_fraction=fraction,
        )
        framework = AgingAwareFramework(
            lambda seed: build_mlp(4, 3, hidden=(8,), seed=seed), data, config, seed=7
        )
        result = framework.run_scenario("t+t")
        # Separable blobs: a fraction of 1.0 hits the cap.
        assert result.software_accuracy == 1.0
        assert result.target_accuracy == min(0.999, fraction * result.software_accuracy)

    def test_compare_collects_all(self, framework):
        comparison = framework.compare(("t+t", "st+at"))
        assert set(comparison.results) == {"t+t", "st+at"}
        assert comparison.workload == "blobs"

    def test_scenarios_share_trained_weights(self, framework):
        """T+T and the training cache must reuse the same software
        model — scenario hardware differs, software does not."""
        framework.run_scenario("t+t")
        model_before = framework.trained_model(False)
        framework.run_scenario("t+at")
        assert framework.trained_model(False) is model_before
