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

    def test_miss_rate_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(kind="pulse_miss", miss_rate=1.0)
        FaultEvent(kind="pulse_miss", miss_rate=0.99)  # ok

    @pytest.mark.parametrize("name", ["rate_lrs", "rate_hrs", "magnitude", "sigma"])
    def test_negative_severity_rejected(self, name):
        with pytest.raises(ConfigurationError, match=name):
            FaultEvent(kind="stuck_at", **{name: -0.01})

    def test_total_rate_by_kind(self):
        assert FaultEvent(kind="stuck_at", rate_lrs=0.01, rate_hrs=0.02).total_rate == pytest.approx(0.03)
        assert FaultEvent(kind="drift", magnitude=0.2).total_rate == 0.2
        assert FaultEvent(kind="read_noise", sigma=0.05).total_rate == 0.05
        assert FaultEvent(kind="pulse_miss", miss_rate=0.1).total_rate == 0.1


class TestFaultSchedule:
    def test_events_at_filters_by_window(self):
        schedule = FaultSchedule(
            events=(
                FaultEvent(kind="drift", window=0, magnitude=0.1),
                FaultEvent(kind="stuck_at", window=2, rate_lrs=0.01),
                FaultEvent(kind="read_noise", window=2, sigma=0.02),
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
            assert event.total_rate == pytest.approx(0.05)
        with pytest.raises(ConfigurationError):
            FaultSchedule.single("bogus", 0.05)

    @pytest.mark.parametrize("lrs_fraction", [-0.1, 1.1])
    def test_stuck_at_midlife_rejects_bad_split(self, lrs_fraction):
        with pytest.raises(ConfigurationError, match="lrs_fraction"):
            FaultSchedule.stuck_at_midlife(0.05, lrs_fraction=lrs_fraction)

    def test_stuck_at_apply_kills_devices(self, mapped_net):
        schedule = FaultSchedule.stuck_at_midlife(0.05, window=1)
        before_dead = mapped_net.dead_fraction()
        applied = schedule.apply(mapped_net, 1, ensure_rng(33))
        assert len(applied) == 1
        assert mapped_net.dead_fraction() > before_dead

    def test_apply_off_window_is_noop(self, mapped_net):
        schedule = FaultSchedule.stuck_at_midlife(0.05, window=1)
        before = [l.tiles.resistances().copy() for l in mapped_net.layers]
        applied = schedule.apply(mapped_net, 0, ensure_rng(33))
        assert applied == []
        for layer, res in zip(mapped_net.layers, before):
            np.testing.assert_array_equal(layer.tiles.resistances(), res)

    def test_read_noise_event_raises_sigma(self, mapped_net):
        schedule = FaultSchedule.single("read_noise", 0.08, window=0)
        schedule.apply(mapped_net, 0, ensure_rng(34))
        for layer in mapped_net.layers:
            for _rs, _cs, tile in layer.tiles.iter_tiles():
                assert tile.read_noise_extra == pytest.approx(0.08)
        # noise-free config + injected sigma => reads now fluctuate
        layer = mapped_net.layers[0]
        a = layer.tiles.read_resistances()
        b = layer.tiles.read_resistances()
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
        # A full step sweep should leave a substantial fraction unmoved.
        before = layer.tiles.resistances().copy()
        layer.tiles.step_conductance(np.ones(layer.matrix_shape, dtype=np.int64))
        moved = np.mean(~np.isclose(layer.tiles.resistances(), before))
        assert 0.05 < moved < 0.75

    def test_drift_event_moves_resistances(self, mapped_net):
        before = [l.tiles.resistances().copy() for l in mapped_net.layers]
        FaultSchedule.single("drift", 0.2, window=0).apply(
            mapped_net, 0, ensure_rng(37)
        )
        changed = any(
            not np.allclose(l.tiles.resistances(), res)
            for l, res in zip(mapped_net.layers, before)
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
