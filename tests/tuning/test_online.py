"""Unit tests for the sign-based online tuner (Eq. 5)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.mapping import MappedNetwork
from repro.tuning import OnlineTuner, TuningConfig, online


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(target_accuracy=0.0),
            dict(target_accuracy=1.5),
            dict(max_iterations=0),
            dict(batch_size=0),
            dict(threshold=1.5),
            dict(eval_every=0),
            dict(step_fraction=0.0),
            dict(decay_after=-1),
            dict(min_step_fraction=0.9, step_fraction=0.5),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            TuningConfig(**kwargs)

    def test_defaults_valid(self):
        cfg = TuningConfig()
        assert cfg.max_iterations == 150


class TestTuning:
    def test_already_converged_is_free(self, mapped_mlp, blob_dataset):
        x, y = blob_dataset.x_train[:64], blob_dataset.y_train[:64]
        baseline = mapped_mlp.score(x, y)
        tuner = OnlineTuner(TuningConfig(target_accuracy=baseline - 0.01 or 0.01), seed=1)
        result = tuner.tune(mapped_mlp, x, y)
        assert result.converged
        assert result.iterations == 0
        assert result.pulses_applied == 0

    def test_recovers_after_degradation(self, mapped_mlp, blob_dataset):
        """Deliberately scrambled devices degrade accuracy; tuning
        pulls it back to target with real pulses."""
        x, y = blob_dataset.x_train[:96], blob_dataset.y_train[:96]
        target = min(0.95, mapped_mlp.score(x, y))
        # Scramble the programmed devices: accuracy collapses to chance.
        scramble = np.random.default_rng(17)
        for layer in mapped_mlp.layers:
            layer.tiles.program_targets(scramble.uniform(1e4, 1e5, layer.matrix_shape))
        degraded = mapped_mlp.score(x, y)
        assert degraded < target
        tuner = OnlineTuner(TuningConfig(target_accuracy=target, max_iterations=100), seed=2)
        result = tuner.tune(mapped_mlp, x, y)
        assert result.converged
        assert result.final_accuracy >= target
        assert result.pulses_applied > 0
        assert result.iterations > 0

    def test_failure_reported_within_budget(self, mapped_mlp, blob_dataset, rng):
        """An unreachable target (shuffled labels) exhausts the budget
        and reports non-convergence (the lifetime engine's failure
        signal)."""
        x = blob_dataset.x_train[:64]
        y = blob_dataset.y_train[:64][rng.permutation(64)]
        tuner = OnlineTuner(TuningConfig(target_accuracy=0.99, max_iterations=5), seed=3)
        result = tuner.tune(mapped_mlp, x, y)
        assert not result.converged
        assert result.iterations == 5

    def test_accuracy_trace_recorded(self, mapped_mlp, blob_dataset):
        x, y = blob_dataset.x_train[:64], blob_dataset.y_train[:64]
        mapped_mlp.apply_drift(0.2)
        tuner = OnlineTuner(TuningConfig(target_accuracy=0.95, max_iterations=20), seed=4)
        result = tuner.tune(mapped_mlp, x, y)
        assert len(result.accuracy_trace) >= 1
        assert result.accuracy_trace[0] == result.initial_accuracy

    def test_length_mismatch(self, mapped_mlp, blob_dataset):
        tuner = OnlineTuner()
        with pytest.raises(ConfigurationError):
            tuner.tune(mapped_mlp, blob_dataset.x_train[:10], blob_dataset.y_train[:9])

    def test_tuning_applies_aging_stress(self, mapped_mlp, blob_dataset):
        x, y = blob_dataset.x_train[:64], blob_dataset.y_train[:64]
        mapped_mlp.apply_drift(0.3)
        pulses_before = mapped_mlp.total_pulses()
        tuner = OnlineTuner(TuningConfig(target_accuracy=0.99, max_iterations=10), seed=5)
        tuner.tune(mapped_mlp, x, y)
        assert mapped_mlp.total_pulses() > pulses_before

    def test_deterministic_given_seeds(self, trained_mlp, device_config, blob_dataset):
        x, y = blob_dataset.x_train[:64], blob_dataset.y_train[:64]

        def run():
            net = MappedNetwork(trained_mlp, device_config, seed=31)
            net.map_network()
            net.apply_drift(0.2)
            tuner = OnlineTuner(TuningConfig(target_accuracy=0.95, max_iterations=15), seed=32)
            return tuner.tune(net, x, y)

        a, b = run(), run()
        assert a.iterations == b.iterations
        assert a.final_accuracy == b.final_accuracy


class TestPatience:
    """``patience_evals`` gives up on a stalled session only when it sits
    more than ``HOPELESS_GAP`` below target."""

    BUDGET = 60

    def _stalled_session(self, mapped_mlp, blob_dataset):
        # Shuffled labels: accuracy stalls near chance, far below 0.99.
        x = blob_dataset.x_train[:64]
        y = blob_dataset.y_train[:64][np.random.default_rng(4).permutation(64)]
        cfg = TuningConfig(
            target_accuracy=0.99, max_iterations=self.BUDGET, patience_evals=3
        )
        return OnlineTuner(cfg, seed=5).tune(mapped_mlp, x, y)

    def test_hopeless_session_stops_early(self, mapped_mlp, blob_dataset):
        result = self._stalled_session(mapped_mlp, blob_dataset)
        assert not result.converged
        assert result.iterations < self.BUDGET
        assert result.final_accuracy < 0.99 - online.HOPELESS_GAP
        assert len(result.accuracy_trace) == result.iterations + 1

    def test_session_within_the_gap_spends_the_budget(
        self, mapped_mlp, blob_dataset, monkeypatch
    ):
        monkeypatch.setattr(online, "HOPELESS_GAP", 1.0)
        result = self._stalled_session(mapped_mlp, blob_dataset)
        assert not result.converged
        assert result.iterations == self.BUDGET
