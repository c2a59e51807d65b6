"""Unit tests for fault events and schedules."""

import numpy as np
import pytest

from repro.device import DeviceConfig
from repro.exceptions import ConfigurationError
from repro.mapping import MappedNetwork
from repro.robustness import FaultEvent, FaultSchedule
from repro.rng import ensure_rng


@pytest.fixture()
def mapped_net(trained_mlp, device_config):
    net = MappedNetwork(trained_mlp, device_config, seed=31)
    net.map_network()
    return net


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(kind="meteor_strike")

    def test_negative_window_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(kind="drift", window=-1)

    def test_has_exactly_kind_window_rate(self):
        from dataclasses import fields

        assert [f.name for f in fields(FaultEvent)] == ["kind", "window", "rate"]

    @pytest.mark.parametrize("kind", ["stuck_at", "drift", "read_noise", "pulse_miss"])
    def test_negative_rate_rejected(self, kind):
        with pytest.raises(ConfigurationError, match="rate must be >= 0"):
            FaultEvent(kind=kind, rate=-0.01)

    @pytest.mark.parametrize("kind", ["stuck_at", "pulse_miss"])
    @pytest.mark.parametrize("rate", [1.0, 1.5])
    def test_fraction_rates_must_stay_below_one(self, kind, rate):
        """A stuck-at or miss fraction of 1 or more fails when the event
        is built, not in the middle of a run."""
        with pytest.raises(ConfigurationError, match=f"{kind} rate must be < 1"):
            FaultEvent(kind=kind, rate=rate)
        FaultEvent(kind=kind, rate=0.99)  # ok

    @pytest.mark.parametrize("kind", ["drift", "read_noise"])
    def test_sigma_rates_may_exceed_one(self, kind):
        assert FaultEvent(kind=kind, rate=1.5).rate == 1.5


class TestFaultSchedule:
    def test_events_at_filters_by_window(self):
        schedule = FaultSchedule(
            events=(
                FaultEvent(kind="drift", window=0, rate=0.1),
                FaultEvent(kind="stuck_at", window=2, rate=0.01),
                FaultEvent(kind="read_noise", window=2, rate=0.02),
            )
        )
        assert len(schedule.events_at(0)) == 1
        assert len(schedule.events_at(1)) == 0
        assert len(schedule.events_at(2)) == 2

    def test_single_constructor_kinds(self):
        for kind in ("stuck_at", "drift", "read_noise", "pulse_miss"):
            schedule = FaultSchedule.single(kind, 0.05, window=1)
            (event,) = schedule.events
            assert event.kind == kind
            assert event.window == 1
            assert event.rate == 0.05
        with pytest.raises(ConfigurationError):
            FaultSchedule.single("bogus", 0.05)

    def test_stuck_at_apply_kills_devices(self, mapped_net):
        schedule = FaultSchedule.single("stuck_at", 0.05, window=1)
        before_dead = mapped_net.dead_fraction()
        applied = schedule.apply(mapped_net, 1, ensure_rng(33))
        assert len(applied) == 1
        assert mapped_net.dead_fraction() > before_dead

    def test_apply_off_window_is_noop(self, mapped_net):
        schedule = FaultSchedule.single("stuck_at", 0.05, window=1)
        before = [l.tiles.read_conductances() for l in mapped_net.layers]
        applied = schedule.apply(mapped_net, 0, ensure_rng(33))
        assert applied == []
        for layer, g in zip(mapped_net.layers, before):
            np.testing.assert_array_equal(layer.tiles.read_conductances(), g)

    def test_read_noise_event_raises_sigma(self, mapped_net):
        schedule = FaultSchedule.single("read_noise", 0.08, window=0)
        schedule.apply(mapped_net, 0, ensure_rng(34))
        for layer in mapped_net.layers:
            for _rs, _cs, tile in layer.tiles.iter_tiles():
                assert tile.read_noise_extra == pytest.approx(0.08)
        # noise-free config + injected sigma => reads now fluctuate
        layer = mapped_net.layers[0]
        a = layer.tiles.read_conductances()
        b = layer.tiles.read_conductances()
        assert not np.array_equal(a, b)

    def test_pulse_miss_event_sets_rate_and_skips_pulses(self, trained_mlp):
        config = DeviceConfig(pulses_to_collapse=10_000, write_noise=0.0, read_noise=0.0)
        net = MappedNetwork(trained_mlp, config, seed=35)
        net.map_network()
        schedule = FaultSchedule.single("pulse_miss", 0.6, window=0)
        schedule.apply(net, 0, ensure_rng(36))
        layer = net.layers[0]
        for _rs, _cs, tile in layer.tiles.iter_tiles():
            assert tile.pulse_miss_rate == pytest.approx(0.6)
        # A full pulse sweep should leave a substantial fraction unmoved.
        before = layer.tiles.read_conductances()
        layer.tiles.program_pulses(np.ones(layer.matrix_shape, dtype=np.int64))
        moved = np.mean(~np.isclose(layer.tiles.read_conductances(), before))
        assert 0.05 < moved < 0.75

    def test_drift_event_moves_resistances(self, mapped_net):
        before = [l.tiles.read_conductances() for l in mapped_net.layers]
        FaultSchedule.single("drift", 0.2, window=0).apply(
            mapped_net, 0, ensure_rng(37)
        )
        changed = any(
            not np.allclose(l.tiles.read_conductances(), g)
            for l, g in zip(mapped_net.layers, before)
        )
        assert changed

    def test_pulse_miss_preserves_stream_when_zero(self):
        """Fault-free arrays consume the same RNG stream as pre-feature."""
        from repro.crossbar import Crossbar

        config = DeviceConfig(pulses_to_collapse=100, write_noise=0.1)
        a = Crossbar(8, 8, config, seed=40)
        b = Crossbar(8, 8, config, seed=40)
        b.pulse_miss_rate = 0.0  # explicit no-op
        targets = np.full((8, 8), 5e4)
        np.testing.assert_array_equal(a.program(targets), b.program(targets))
