"""Integration tests: the full paper pipeline at miniature scale.

These exercise the headline behaviours end-to-end — train, map, tune,
simulate lifetime, compare scenarios — on workloads small enough for
the test suite but real enough that the qualitative claims must hold.
"""

import numpy as np
import pytest

from repro import (
    AgingAwareFramework,
    DeviceConfig,
    FrameworkConfig,
    LifetimeConfig,
    MappedNetwork,
    OnlineTuner,
    SkewedTrainingConfig,
    TrainConfig,
    TuningConfig,
    make_glyph_digits,
)
from repro.mapping.network import clone_model
from repro.training import build_lenet, skewed_train, train_baseline


@pytest.fixture(scope="module")
def glyphs():
    return make_glyph_digits(n_train=1200, n_test=300, seed=11)


@pytest.fixture(scope="module")
def baseline_lenet(glyphs):
    model = build_lenet(seed=5)
    train_baseline(model, glyphs, TrainConfig(epochs=20))
    return model


@pytest.fixture(scope="module")
def skewed_lenet(glyphs, baseline_lenet):
    model = clone_model(baseline_lenet)
    skewed_train(
        model,
        glyphs,
        SkewedTrainingConfig(
            beta_scale=-1.0, lambda1=0.05, lambda2=1e-3, skew_epochs=15
        ),
        pretrained=True,
    )
    return model


class TestSoftwareTraining:
    def test_baseline_learns(self, baseline_lenet, glyphs):
        assert baseline_lenet.score(glyphs.x_test, glyphs.y_test) > 0.7

    def test_skewed_keeps_accuracy(self, baseline_lenet, skewed_lenet, glyphs):
        """Paper Table I: skewed accuracy within a couple of points of
        baseline (sometimes above it)."""
        base = baseline_lenet.score(glyphs.x_test, glyphs.y_test)
        skew = skewed_lenet.score(glyphs.x_test, glyphs.y_test)
        assert skew > base - 0.08

    def test_skewed_shifts_resistances_up(self, baseline_lenet, skewed_lenet):
        """Paper Section IV-A: the skewed distribution maps to larger
        resistances (smaller currents)."""

        def median_target_r(model):
            net = MappedNetwork(model, DeviceConfig(), seed=1)
            net.map_network()
            targets = np.concatenate(
                [
                    np.asarray(
                        m.mapping.weight_to_resistance(m.software_matrix())
                    ).ravel()
                    for m in net.layers
                ]
            )
            return np.median(targets)

        assert median_target_r(skewed_lenet) > 1.3 * median_target_r(baseline_lenet)

    def test_skewed_quantizes_better(self, baseline_lenet, skewed_lenet, glyphs):
        """Paper Fig. 6: the skewed network loses less accuracy to
        mapping+quantization (averaged over hardware seeds)."""

        def premap_drop(model, seeds=(101, 102, 103)):
            sw = model.score(glyphs.x_test, glyphs.y_test)
            drops = []
            for seed in seeds:
                net = MappedNetwork(model, DeviceConfig(), seed=seed)
                net.map_network()
                drops.append(sw - net.score(glyphs.x_test, glyphs.y_test))
            return np.mean(drops)

        assert premap_drop(skewed_lenet) < premap_drop(baseline_lenet) + 0.02


class TestHardwarePipeline:
    def test_map_tune_reaches_target(self, baseline_lenet, glyphs):
        net = MappedNetwork(
            baseline_lenet, DeviceConfig(pulses_to_collapse=1e4), seed=7
        )
        net.map_network()
        x, y = glyphs.x_train[:128], glyphs.y_train[:128]
        sw = baseline_lenet.score(x, y)
        tuner = OnlineTuner(
            TuningConfig(target_accuracy=0.9 * sw, max_iterations=100), seed=8
        )
        result = tuner.tune(net, x, y)
        assert result.converged

    def test_conv_layers_age_faster(self, baseline_lenet, glyphs):
        """Paper Fig. 11: conv layers are programmed more often and age
        faster than fully-connected layers."""
        from repro.core.lifetime import LifetimeConfig, LifetimeSimulator
        from repro.analysis import layer_type_aging

        net = MappedNetwork(
            baseline_lenet, DeviceConfig(pulses_to_collapse=100), seed=9
        )
        net.map_network()
        x, y = glyphs.x_train[:96], glyphs.y_train[:96]
        sw = baseline_lenet.score(x, y)
        sim = LifetimeSimulator(
            net,
            x,
            y,
            config=LifetimeConfig(
                apps_per_window=100,
                max_windows=6,
                tuning=TuningConfig(target_accuracy=0.9 * sw, max_iterations=30),
            ),
            seed=10,
        )
        result = sim.run("t+t")
        grouped = layer_type_aging(result, net)
        r_max = net.device_config.r_max
        conv_drop = r_max - grouped["conv"][-1]
        dense_drop = r_max - grouped["dense"][-1]
        assert conv_drop > dense_drop


class TestLifetimeOrdering:
    @pytest.mark.slow
    def test_scenario_ordering(self, glyphs):
        """THE headline: lifetime(T+T) < lifetime(ST+T) <= lifetime(ST+AT).

        Miniature version of the Table I experiment; the full-scale
        version lives in benchmarks/test_table1_lifetime.py.
        """
        config = FrameworkConfig(
            device=DeviceConfig(pulses_to_collapse=30, write_noise=0.1),
            train=TrainConfig(epochs=20),
            skewed=SkewedTrainingConfig(
                pretrain=TrainConfig(epochs=20), skew_epochs=15
            ),
            lifetime=LifetimeConfig(
                apps_per_window=10_000,
                drift_magnitude=0.05,
                max_windows=120,
                tuning=TuningConfig(max_iterations=100, patience_evals=10),
            ),
            tune_samples=128,
            target_fraction=0.93,
        )
        framework = AgingAwareFramework(
            lambda seed: build_lenet(seed=seed), glyphs, config, seed=42
        )
        tt = framework.run_scenario("t+t")
        stt = framework.run_scenario("st+t")
        assert stt.lifetime_applications > tt.lifetime_applications
