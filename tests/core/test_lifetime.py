"""Unit tests for the lifetime simulation engine."""

import pytest

from repro.core.lifetime import LifetimeConfig, LifetimeSimulator
from repro.exceptions import ConfigurationError
from repro.mapping import AgingAwareMapper, MappedNetwork
from repro.tuning import TuningConfig


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(apps_per_window=0), dict(drift_magnitude=-0.1), dict(max_windows=0)],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            LifetimeConfig(**kwargs)

    def test_default_tuning_created(self):
        assert LifetimeConfig().tuning.max_iterations == 150

    def test_default_configs_share_no_mutable_state(self):
        """Regression (ISSUE 4): the tuning default must come from a
        ``default_factory``, not a shared sentinel — mutating one
        config's TuningConfig must never leak into another."""
        a = LifetimeConfig()
        b = LifetimeConfig()
        assert a.tuning is not b.tuning
        a.tuning.max_iterations = 7
        assert b.tuning.max_iterations == 150

    def test_with_target_is_an_independent_copy(self):
        """The copy carries every field, and mutating its tuning config
        (as the framework does for degradation) never reaches ``self``."""
        cfg = LifetimeConfig(
            apps_per_window=123,
            drift_magnitude=0.2,
            max_windows=9,
            tuning=TuningConfig(target_accuracy=0.5, max_iterations=11),
        )
        copy = cfg.with_target(0.8)
        assert (copy.apps_per_window, copy.drift_magnitude, copy.max_windows) == (
            123,
            0.2,
            9,
        )
        assert copy.tuning.target_accuracy == 0.8
        assert copy.tuning.max_iterations == 11
        assert copy is not cfg and copy.tuning is not cfg.tuning
        copy.tuning.max_iterations = 3
        copy.max_windows = 4
        assert cfg.tuning == TuningConfig(target_accuracy=0.5, max_iterations=11)
        assert cfg.max_windows == 9


class TestSimulator:
    @pytest.fixture()
    def simulator(self, trained_mlp, device_config, blob_dataset):
        network = MappedNetwork(trained_mlp, device_config, seed=41)
        network.map_network()
        config = LifetimeConfig(
            apps_per_window=1000,
            drift_magnitude=0.05,
            max_windows=5,
            tuning=TuningConfig(target_accuracy=0.9, max_iterations=20),
        )
        return LifetimeSimulator(
            network,
            blob_dataset.x_train[:96],
            blob_dataset.y_train[:96],
            config=config,
            seed=42,
        )

    def test_survives_horizon_on_easy_task(self, simulator):
        result = simulator.run("t+t")
        assert not result.failed
        assert result.lifetime_applications == 5000
        assert len(result.windows) == 5

    def test_window_records_are_complete(self, simulator):
        result = simulator.run("t+t")
        for i, window in enumerate(result.windows):
            assert window.window_index == i
            assert window.applications_total == (i + 1) * 1000
            assert window.converged
            assert window.aged_upper_by_layer
            assert window.pulses_total >= 0

    @pytest.mark.parametrize(
        "every,with_dir,fragment",
        [(0, True, "checkpoint_every must be >= 1"), (2, False, "requires a checkpoint_dir")],
    )
    def test_checkpoint_arguments_validated(
        self, simulator, tmp_path, every, with_dir, fragment
    ):
        pulses = simulator.network.total_pulses()
        with pytest.raises(ConfigurationError, match=fragment):
            simulator.run(
                "t+t",
                checkpoint_every=every,
                checkpoint_dir=tmp_path if with_dir else None,
            )
        assert simulator.network.total_pulses() == pulses
        assert list(tmp_path.iterdir()) == []

    def test_pulses_accumulate_across_windows(self, simulator):
        result = simulator.run("t+t")
        pulses = [w.pulses_total for w in result.windows]
        assert pulses == sorted(pulses)
        assert pulses[-1] > 0

    def test_failure_on_impossible_target(self, trained_mlp, device_config, blob_dataset, rng):
        network = MappedNetwork(trained_mlp, device_config, seed=43)
        network.map_network()
        y_shuffled = blob_dataset.y_train[:96][rng.permutation(96)]
        config = LifetimeConfig(
            apps_per_window=1000,
            max_windows=5,
            tuning=TuningConfig(target_accuracy=0.99, max_iterations=5),
        )
        sim = LifetimeSimulator(
            network, blob_dataset.x_train[:96], y_shuffled, config=config, seed=44
        )
        result = sim.run("t+t")
        assert result.failed
        assert result.lifetime_applications == 0  # first window already fails
        assert len(result.windows) == 1

    def test_aging_aware_mode_runs(self, trained_mlp, device_config, blob_dataset):
        network = MappedNetwork(trained_mlp, device_config, seed=45)
        network.map_network()
        config = LifetimeConfig(
            apps_per_window=1000,
            max_windows=3,
            tuning=TuningConfig(target_accuracy=0.9, max_iterations=20),
        )
        sim = LifetimeSimulator(
            network,
            blob_dataset.x_train[:96],
            blob_dataset.y_train[:96],
            config=config,
            mapper=AgingAwareMapper(),
            seed=46,
        )
        result = sim.run("st+at")
        assert len(result.windows) == 3
        assert not result.failed
        # The history holds the last remap only, not every window's.
        assert len(sim.mapper.history) == len(network.layers)

    def test_aged_upper_bounds_decline(self, simulator):
        result = simulator.run("t+t")
        trace = result.layer_aging_trace()[0]
        assert trace[-1] <= trace[0]
