"""Unit tests for the perf-counter registry."""

import json

import pytest

from repro.core.profiling import PROFILER, PerfRegistry


@pytest.fixture()
def registry():
    return PerfRegistry()


class TestCounters:
    def test_increment_and_read(self, registry):
        registry.increment("a")
        registry.increment("a", 4)
        assert registry.counter("a") == 5
        assert registry.counter("missing") == 0

    def test_snapshot_is_a_copy(self, registry):
        registry.increment("a")
        snap = registry.snapshot()
        registry.increment("a")
        assert snap["counters"]["a"] == 1

    def test_reset(self, registry):
        registry.increment("a")
        with registry.timer("t"):
            pass
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "timers": {}}


class TestTimers:
    def test_timer_aggregates_calls(self, registry):
        for _ in range(3):
            with registry.timer("t"):
                pass
        snap = registry.snapshot()
        assert snap["timers"]["t"]["calls"] == 3
        assert snap["timers"]["t"]["total_s"] >= 0.0

    def test_timer_records_on_exception(self, registry):
        with pytest.raises(RuntimeError):
            with registry.timer("t"):
                raise RuntimeError("boom")
        assert registry.snapshot()["timers"]["t"]["calls"] == 1

    def test_add_time_direct(self, registry):
        registry.add_time("t", 0.5)
        registry.add_time("t", 0.25)
        entry = registry.snapshot()["timers"]["t"]
        assert entry == {"calls": 2, "total_s": 0.75}


class TestCapture:
    def test_capture_diffs_counters(self, registry):
        registry.increment("a", 10)
        with registry.capture() as delta:
            registry.increment("a", 2)
            registry.increment("b")
        assert delta.counters == {"a": 2, "b": 1}
        assert delta.elapsed_s >= 0.0

    def test_capture_ignores_untouched_names(self, registry):
        registry.increment("a")
        with registry.capture() as delta:
            pass
        assert delta.counters == {}
        assert delta.timers == {}

    def test_capture_diffs_timers(self, registry):
        with registry.timer("t"):
            pass
        with registry.capture() as delta:
            with registry.timer("t"):
                pass
        assert delta.timers["t"]["calls"] == 1

    def test_nested_captures(self, registry):
        with registry.capture() as outer:
            registry.increment("a")
            with registry.capture() as inner:
                registry.increment("a")
        assert inner.counters == {"a": 1}
        assert outer.counters == {"a": 2}

    def test_merge_adds_a_delta(self, registry):
        registry.increment("a", 1)
        registry.add_time("t", 0.5)
        source = PerfRegistry()
        with source.capture() as delta:
            source.increment("a", 2)
            source.increment("zero", 0)
            source.add_time("t", 0.25)
        registry.merge(delta.to_dict())
        assert registry.snapshot() == {
            "counters": {"a": 3, "zero": 0},
            "timers": {"t": {"calls": 2, "total_s": 0.75}},
        }

    def test_to_dict_round_trips_json(self, registry):
        with registry.capture() as delta:
            registry.increment("a")
        encoded = json.dumps(delta.to_dict())
        assert json.loads(encoded)["counters"]["a"] == 1


class TestExport:
    def test_export_json(self, registry, tmp_path):
        registry.increment("a", 3)
        path = tmp_path / "perf.json"
        registry.export_json(str(path))
        assert json.loads(path.read_text())["counters"]["a"] == 3

    def test_render_text_empty(self, registry):
        assert "(empty)" in registry.render_text()

    def test_render_text_lists_counters_and_timers(self, registry):
        registry.increment("kernels.factorizations", 2)
        with registry.timer("kernels.factorize"):
            pass
        text = registry.render_text()
        assert "kernels.factorizations" in text
        assert "kernels.factorize" in text
        assert "1 calls" in text


class TestGlobalRegistry:
    def test_module_global_exists(self):
        PROFILER.increment("test.profiling.global")
        assert PROFILER.counter("test.profiling.global") >= 1


class TestVectorizedPathCounters:
    def test_lifetime_window_pulse_counters_match_network_delta(
        self, trained_mlp, blob_dataset
    ):
        """A profiled lifetime window reports the pulse counters, and
        their sum accounts for every pulse the network fired:
        ``programming.batched`` (map/remap programming) plus
        ``tuning.pulses`` (tuning sessions) equals the
        ``network.total_pulses()`` delta across the run."""
        from repro.core.lifetime import LifetimeConfig, LifetimeSimulator
        from repro.device import DeviceConfig
        from repro.mapping import MappedNetwork
        from repro.tuning import TuningConfig

        # Coarse quantization keeps the mapped accuracy below target at
        # every remap, so each window really runs tuning sweeps.
        device = DeviceConfig(
            n_levels=4, pulses_to_collapse=100, write_noise=0.1, read_noise=0.0
        )
        network = MappedNetwork(trained_mlp, device, seed=41)
        network.map_network()
        sim = LifetimeSimulator(
            network,
            blob_dataset.x_train[:96],
            blob_dataset.y_train[:96],
            config=LifetimeConfig(
                apps_per_window=1000,
                drift_magnitude=0.4,
                max_windows=2,
                tuning=TuningConfig(target_accuracy=0.99, max_iterations=10),
            ),
            seed=42,
        )
        pulses_before = network.total_pulses()
        with PROFILER.capture() as delta:
            sim.run("t+t")
        pulses_delta = network.total_pulses() - pulses_before

        assert pulses_delta > 0
        assert "programming.batched" in delta.counters
        assert "tuning.pulses" in delta.counters
        assert (
            delta.counters["programming.batched"] + delta.counters["tuning.pulses"]
            == pulses_delta
        )
