"""Tests for the tuner's amplitude decay and framework repeats."""

import numpy as np

from repro.mapping import MappedNetwork
from repro.tuning import OnlineTuner, TuningConfig


class TestAmplitudeDecay:
    def _scrambled_network(self, trained_mlp, device_config, seed=19):
        network = MappedNetwork(trained_mlp, device_config, seed=seed)
        network.map_network()
        rng = np.random.default_rng(seed)
        for layer in network.layers:
            layer.tiles.program_targets(rng.uniform(1e4, 1e5, layer.matrix_shape))
        return network

    def test_decay_disabled_keeps_amplitude(self, trained_mlp, device_config, blob_dataset):
        """With decay_after=0 the tuner never shrinks the step; the
        config knob must be honoured (behavioural check: both modes
        still run and report)."""
        x = blob_dataset.x_train[:64]
        y = blob_dataset.y_train[:64][np.random.default_rng(0).permutation(64)]
        network = self._scrambled_network(trained_mlp, device_config)
        tuner = OnlineTuner(
            TuningConfig(target_accuracy=0.999, max_iterations=8, decay_after=0),
            seed=1,
        )
        result = tuner.tune(network, x, y)
        assert result.iterations == 8
        assert not result.converged

    def test_decay_helps_convergence_near_target(
        self, trained_mlp, device_config, blob_dataset
    ):
        """Constant large steps orbit the target; decaying amplitude
        settles.  Statistically: with decay enabled the tuner should
        reach a tight target at least as often as without."""
        x, y = blob_dataset.x_train[:96], blob_dataset.y_train[:96]

        def final_accuracy(decay_after: int, seed: int) -> float:
            network = self._scrambled_network(trained_mlp, device_config, seed=seed)
            tuner = OnlineTuner(
                TuningConfig(
                    target_accuracy=0.99,
                    max_iterations=40,
                    step_fraction=1.0,
                    decay_after=decay_after,
                ),
                seed=seed,
            )
            return tuner.tune(network, x, y).final_accuracy

        with_decay = np.mean([final_accuracy(3, s) for s in (1, 2, 3)])
        without = np.mean([final_accuracy(0, s) for s in (1, 2, 3)])
        assert with_decay >= without - 0.02

    def test_min_step_fraction_floor(self):
        cfg = TuningConfig(step_fraction=0.4, min_step_fraction=0.1, decay_after=1)
        assert cfg.min_step_fraction == 0.1


class TestFrameworkRepeats:
    def test_repeats_differ_and_are_reproducible(self, blob_dataset):
        from repro.core import AgingAwareFramework, FrameworkConfig, LifetimeConfig
        from repro.device import DeviceConfig
        from repro.training import SkewedTrainingConfig, TrainConfig, build_mlp
        from repro.tuning import TuningConfig as TC

        config = FrameworkConfig(
            device=DeviceConfig(pulses_to_collapse=60, write_noise=0.1),
            train=TrainConfig(epochs=8),
            skewed=SkewedTrainingConfig(pretrain=TrainConfig(epochs=8), skew_epochs=4),
            lifetime=LifetimeConfig(
                apps_per_window=100, max_windows=6, tuning=TC(max_iterations=10)
            ),
            tune_samples=64,
            target_fraction=0.9,
        )
        fw = AgingAwareFramework(
            lambda seed: build_mlp(4, 3, hidden=(12,), seed=seed),
            blob_dataset,
            config,
            seed=31,
        )
        first = fw.run_scenario("t+t", repeat=0)
        again = fw.run_scenario("t+t", repeat=0)
        assert first.lifetime_applications == again.lifetime_applications
        results = fw.run_scenario_repeats("t+t", repeats=2)
        assert len(results) == 2
        assert results[0].lifetime_applications == first.lifetime_applications
