"""Unit tests for stuck-at fault injection."""

import numpy as np
import pytest

from repro.crossbar import Crossbar
from repro.device import AgingParams, DeviceConfig
from repro.device.faults import FaultModel, inject_faults, inject_faults_network
from repro.exceptions import ConfigurationError


class TestFaultModel:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultModel(rate_lrs=-0.1)
        with pytest.raises(ConfigurationError):
            FaultModel(rate_lrs=0.6, rate_hrs=0.5)

    def test_masks_disjoint(self):
        model = FaultModel(rate_lrs=0.2, rate_hrs=0.2)
        lrs, hrs = model.sample_masks((50, 50), seed=1)
        assert not np.any(lrs & hrs)

    def test_rates_approximately_met(self):
        model = FaultModel(rate_lrs=0.1, rate_hrs=0.05)
        lrs, hrs = model.sample_masks((200, 200), seed=2)
        assert lrs.mean() == pytest.approx(0.1, abs=0.02)
        assert hrs.mean() == pytest.approx(0.05, abs=0.02)

    def test_zero_rates(self):
        lrs, hrs = FaultModel().sample_masks((10, 10), seed=3)
        assert not lrs.any() and not hrs.any()


class TestDeterminism:
    """Same seed → identical fault maps, bit for bit."""

    def test_sample_masks_same_seed_identical(self):
        model = FaultModel(rate_lrs=0.07, rate_hrs=0.04)
        lrs_a, hrs_a = model.sample_masks((64, 64), seed=42)
        lrs_b, hrs_b = model.sample_masks((64, 64), seed=42)
        np.testing.assert_array_equal(lrs_a, lrs_b)
        np.testing.assert_array_equal(hrs_a, hrs_b)

    def test_sample_masks_different_seed_differs(self):
        model = FaultModel(rate_lrs=0.1, rate_hrs=0.1)
        lrs_a, _ = model.sample_masks((64, 64), seed=42)
        lrs_b, _ = model.sample_masks((64, 64), seed=43)
        assert not np.array_equal(lrs_a, lrs_b)

    def test_sample_masks_rates_within_binomial_tolerance(self):
        model = FaultModel(rate_lrs=0.08, rate_hrs=0.03)
        shape = (300, 300)
        n = shape[0] * shape[1]
        lrs, hrs = model.sample_masks(shape, seed=17)
        # 4-sigma binomial band around the expected count.
        for mask, rate in ((lrs, 0.08), (hrs, 0.03)):
            sigma = np.sqrt(n * rate * (1.0 - rate))
            assert abs(int(mask.sum()) - n * rate) <= 4.0 * sigma

    def test_sample_masks_disjoint_at_high_rates(self):
        model = FaultModel(rate_lrs=0.45, rate_hrs=0.45)
        lrs, hrs = model.sample_masks((100, 100), seed=19)
        assert not np.any(lrs & hrs)

    def test_inject_faults_network_same_seed_identical(
        self, trained_mlp, device_config
    ):
        from repro.mapping import MappedNetwork

        model = FaultModel(rate_lrs=0.05, rate_hrs=0.05)
        nets = []
        for _ in range(2):
            net = MappedNetwork(trained_mlp, device_config, seed=21)
            frac = inject_faults_network(net, model, seed=22)
            nets.append((net, frac))
        (net_a, frac_a), (net_b, frac_b) = nets
        assert frac_a == frac_b
        for layer_a, layer_b in zip(net_a.layers, net_b.layers):
            np.testing.assert_array_equal(
                layer_a.tiles.read_conductances(), layer_b.tiles.read_conductances()
            )
            np.testing.assert_array_equal(
                layer_a.tiles.dead_mask(), layer_b.tiles.dead_mask()
            )


class TestInjectFaults:
    def test_stuck_values_pinned(self, device_config):
        xb = Crossbar(20, 20, device_config, seed=4)
        lrs, hrs = inject_faults(xb, FaultModel(rate_lrs=0.1, rate_hrs=0.1), seed=5)
        np.testing.assert_allclose(xb.resistance[lrs], xb.r_fresh_min[lrs])
        np.testing.assert_allclose(xb.resistance[hrs], xb.r_fresh_max[hrs])

    def test_stuck_devices_ignore_programming(self, device_config):
        xb = Crossbar(20, 20, device_config, seed=6)
        lrs, hrs = inject_faults(xb, FaultModel(rate_lrs=0.15), seed=7)
        before = xb.resistance.copy()
        xb.program(np.full(xb.shape, 5e4), only_changed=False)
        np.testing.assert_array_equal(xb.resistance[lrs], before[lrs])
        # Healthy devices did move.
        healthy = ~(lrs | hrs)
        assert not np.allclose(xb.resistance[healthy], before[healthy])

    def test_rejects_device_without_endurance_limit(self):
        """A stuck device is pinned by exhausting its endurance; a device
        whose window never collapses cannot be pinned that way."""
        config = DeviceConfig(
            aging_params=AgingParams(prefactor_max=1.0, prefactor_min=2.0)
        )
        xb = Crossbar(4, 4, config, seed=10)
        with pytest.raises(ConfigurationError, match="never collapses"):
            inject_faults(xb, FaultModel(rate_lrs=0.5), seed=11)

    def test_stuck_devices_count_as_dead(self, device_config):
        xb = Crossbar(10, 10, device_config, seed=8)
        lrs, hrs = inject_faults(xb, FaultModel(rate_lrs=0.2), seed=9)
        assert xb.dead_mask()[lrs].all()

    def test_network_injection_fraction(self, trained_mlp, device_config):
        from repro.mapping import MappedNetwork

        net = MappedNetwork(trained_mlp, device_config, seed=10)
        realized = inject_faults_network(net, FaultModel(rate_lrs=0.08), seed=11)
        assert realized == pytest.approx(0.08, abs=0.05)
        assert net.dead_fraction() >= realized - 1e-9

    def test_accuracy_degrades_with_faults(self, trained_mlp, device_config, blob_dataset):
        from repro.mapping import MappedNetwork

        clean = MappedNetwork(trained_mlp, device_config, seed=12)
        clean.map_network()
        acc_clean = clean.score(blob_dataset.x_test, blob_dataset.y_test)

        faulty = MappedNetwork(trained_mlp, device_config, seed=12)
        inject_faults_network(faulty, FaultModel(rate_lrs=0.3, rate_hrs=0.3), seed=13)
        faulty.map_network()
        acc_faulty = faulty.score(blob_dataset.x_test, blob_dataset.y_test)
        assert acc_faulty <= acc_clean
