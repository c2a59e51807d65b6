"""Unit tests for differential-pair mapping."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.mapping.differential import (
    DifferentialMappedNetwork,
    DifferentialPairMapping,
)


@pytest.fixture()
def pair_mapping():
    return DifferentialPairMapping(w_abs_max=1.0, g_min=1e-5, g_max=1e-4)


class TestPairMapping:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DifferentialPairMapping(0.0, 1e-5, 1e-4)
        with pytest.raises(ConfigurationError):
            DifferentialPairMapping(1.0, 1e-4, 1e-5)

    def test_zero_weight_rests_at_g_min(self, pair_mapping):
        g_plus, g_minus = pair_mapping.weight_to_conductances(0.0)
        assert g_plus == pytest.approx(1e-5)
        assert g_minus == pytest.approx(1e-5)

    def test_positive_weight_uses_plus_arm(self, pair_mapping):
        g_plus, g_minus = pair_mapping.weight_to_conductances(0.5)
        assert g_plus > 1e-5
        assert g_minus == pytest.approx(1e-5)

    def test_negative_weight_uses_minus_arm(self, pair_mapping):
        g_plus, g_minus = pair_mapping.weight_to_conductances(-0.5)
        assert g_plus == pytest.approx(1e-5)
        assert g_minus > 1e-5

    def test_extremes_hit_g_max(self, pair_mapping):
        g_plus, _ = pair_mapping.weight_to_conductances(1.0)
        assert g_plus == pytest.approx(1e-4)

    def test_roundtrip(self, pair_mapping, rng):
        w = rng.uniform(-1, 1, size=(4, 5))
        g_plus, g_minus = pair_mapping.weight_to_conductances(w)
        np.testing.assert_allclose(
            pair_mapping.conductances_to_weight(g_plus, g_minus), w, atol=1e-12
        )

    def test_from_weights_scale(self, rng):
        w = rng.uniform(-0.3, 0.3, 100)
        m = DifferentialPairMapping.from_weights(w, 1e-5, 1e-4)
        assert m.w_abs_max == pytest.approx(np.max(np.abs(w)))

    def test_degenerate_all_zero_weights(self):
        m = DifferentialPairMapping.from_weights(np.zeros(5), 1e-5, 1e-4)
        assert m.w_abs_max == 1.0


class TestDifferentialNetwork:
    @pytest.fixture()
    def network(self, trained_mlp, device_config):
        net = DifferentialMappedNetwork(trained_mlp, device_config, seed=3)
        net.map_network()
        return net

    def test_requires_built_model(self, device_config):
        from repro.nn import Dense, Sequential

        with pytest.raises(ConfigurationError):
            DifferentialMappedNetwork(Sequential([Dense(2)]), device_config)

    def test_accuracy_preserved(self, network, blob_dataset):
        assert network.score(blob_dataset.x_test, blob_dataset.y_test) > 0.9

    def test_hardware_close_to_software(self, network):
        for layer in network.layers:
            err = np.abs(layer.hardware_matrix() - layer.software_matrix())
            assert np.percentile(err, 95) < 0.15

    def test_most_devices_at_low_conductance(self, network):
        """The differential representation's free lunch: one arm of
        every pair rests at g_min (large R, low stress)."""
        layer = network.layers[0]
        r_all = np.concatenate(
            [layer.plus.resistances().ravel(), layer.minus.resistances().ravel()]
        )
        at_high_r = np.mean(r_all > 0.9 * network.device_config.r_max)
        assert at_high_r > 0.4

    def test_unprogrammed_layer_raises(self, trained_mlp, device_config):
        net = DifferentialMappedNetwork(trained_mlp, device_config, seed=5)
        with pytest.raises(ConfigurationError):
            net.layers[0].hardware_matrix()

    def test_mean_stress_lower_than_single_device(
        self, trained_mlp, device_config, blob_dataset
    ):
        """Compared with Eq. (4) single-device mapping of the same
        weights, the differential pair's programmed state dissipates
        less per pulse (most devices rest at g_min)."""
        from repro.mapping import MappedNetwork

        single = MappedNetwork(trained_mlp, device_config, seed=7)
        single.map_network()
        r_single = np.concatenate(
            [m.tiles.resistances().ravel() for m in single.layers]
        )
        single_stress = np.mean(device_config.stress_factor(r_single))

        diff = DifferentialMappedNetwork(trained_mlp, device_config, seed=7)
        diff.map_network()
        assert diff.mean_stress_factor() < single_stress
