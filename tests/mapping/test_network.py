"""Unit tests for MappedNetwork / MappedLayer."""

import copy

import numpy as np
import pytest

from repro.core.profiling import PROFILER
from repro.exceptions import ConfigurationError, ShapeError
from repro.mapping import AgingAwareMapper, FreshMapper, MappedNetwork
from repro.mapping.network import clone_model
from repro.nn import Activation, Conv2D, Dense, Flatten, MaxPool2D, Sequential


class TestConstruction:
    def test_requires_built_model(self, device_config):
        model = Sequential([Dense(3)])
        with pytest.raises(ConfigurationError):
            MappedNetwork(model, device_config)

    def test_one_mapped_layer_per_weighted_layer(self, mapped_mlp):
        assert len(mapped_mlp.layers) == 2
        assert [m.layer_index for m in mapped_mlp.layers] == [0, 2]

    def test_dense_matrix_shape(self, mapped_mlp):
        assert mapped_mlp.layers[0].matrix_shape == (4, 16)
        assert mapped_mlp.layers[0].kind == "dense"

    def test_conv_layer_unrolled(self, device_config, rng):
        model = Sequential(
            [Conv2D(4, 3), Activation("relu"), MaxPool2D(2), Flatten(), Dense(2)],
            seed=1,
        ).build((2, 8, 8))
        net = MappedNetwork(model, device_config, seed=2)
        conv = net.layers[0]
        assert conv.kind == "conv"
        assert conv.matrix_shape == (2 * 3 * 3, 4)

    def test_conv_kernel_roundtrip(self, device_config):
        """software kernel -> device matrix -> kernel is the identity."""
        model = Sequential(
            [Conv2D(4, 3), Activation("relu"), Flatten(), Dense(2)], seed=3
        ).build((2, 6, 6))
        net = MappedNetwork(model, device_config, seed=4)
        conv = net.layers[0]
        from repro.mapping.network import _matrix_to_kernel

        kernel = model.layers[0].params["W"]
        np.testing.assert_array_equal(
            _matrix_to_kernel(conv.software_matrix(), model.layers[0]), kernel
        )

    @pytest.mark.parametrize("convert", ["to_matrix", "to_kernel"])
    def test_unknown_weighted_layer_cannot_be_mapped(self, convert):
        """Only Dense and Conv2D kernels have a crossbar arrangement."""
        from repro.mapping.network import _layer_matrix, _matrix_to_kernel
        from repro.nn import ParamLayer

        layer = ParamLayer()
        layer.params["W"] = np.zeros((2, 2))
        with pytest.raises(ConfigurationError, match="cannot be mapped"):
            if convert == "to_matrix":
                _layer_matrix(layer)
            else:
                _matrix_to_kernel(np.zeros((2, 2)), layer)


class TestMappingLifecycle:
    def test_program_requires_range(self, trained_mlp, device_config):
        net = MappedNetwork(trained_mlp, device_config, seed=5)
        with pytest.raises(ConfigurationError):
            net.layers[0].program()

    def test_hardware_requires_programming(self, trained_mlp, device_config):
        net = MappedNetwork(trained_mlp, device_config, seed=6)
        with pytest.raises(ConfigurationError):
            net.layers[0].hardware_matrix()

    def test_fresh_map_preserves_accuracy(self, mapped_mlp, blob_dataset):
        """On an easy task, 32-level quantization keeps accuracy high."""
        hw = mapped_mlp.score(blob_dataset.x_test, blob_dataset.y_test)
        assert hw > 0.9

    def test_hardware_weights_close_to_software(self, mapped_mlp):
        for mapped in mapped_mlp.layers:
            sw = mapped.software_matrix()
            hw = mapped.hardware_matrix()
            # One quantization step in weight units bounds the error.
            w_range = mapped.mapping.w_max - mapped.mapping.w_min
            assert np.max(np.abs(sw - hw)) < 0.3 * w_range

    def test_set_range_validation(self, mapped_mlp):
        with pytest.raises(ConfigurationError):
            mapped_mlp.layers[0].set_range(1e5, 1e4)

    def test_mapping_ages_devices(self, trained_mlp, device_config):
        net = MappedNetwork(trained_mlp, device_config, seed=7)
        assert net.total_pulses() == 0
        net.map_network()
        assert net.total_pulses() > 0

    def test_remap_with_same_targets_is_cheap(self, mapped_mlp):
        pulses = mapped_mlp.total_pulses()
        mapped_mlp.map_network(FreshMapper())
        # only_changed skips devices already on target.
        assert mapped_mlp.total_pulses() == pulses


class TestAgingAwareIntegration:
    def test_aging_aware_map_with_selection_data(self, trained_mlp, device_config, blob_dataset):
        net = MappedNetwork(trained_mlp, device_config, seed=8)
        mapper = AgingAwareMapper()
        net.map_network(mapper, selection_data=(blob_dataset.x_train[:64], blob_dataset.y_train[:64]))
        assert len(mapper.history) == len(net.layers)
        assert net.score(blob_dataset.x_test, blob_dataset.y_test) > 0.85

    def test_aging_aware_map_without_selection_data(self, trained_mlp, device_config):
        net = MappedNetwork(trained_mlp, device_config, seed=9)
        net.map_network(AgingAwareMapper())
        assert all(m.mapping is not None for m in net.layers)


class TestGradients:
    def test_gradient_sign_matrices_shapes(self, mapped_mlp, blob_dataset):
        grads = mapped_mlp.gradient_sign_matrices(
            blob_dataset.x_train[:16], blob_dataset.y_train[:16]
        )
        for mapped in mapped_mlp.layers:
            assert grads[mapped.layer_index].shape == mapped.matrix_shape

    def test_apply_gradient_signs_moves_weights_downhill(self, mapped_mlp, blob_dataset):
        x, y = blob_dataset.x_train[:64], blob_dataset.y_train[:64]
        model = mapped_mlp.effective_model()
        loss_before = model.evaluate(x, y)[0]
        for _ in range(3):
            grads = mapped_mlp.gradient_sign_matrices(x, y)
            for mapped in mapped_mlp.layers:
                mapped.apply_gradient_signs(grads[mapped.layer_index], 0.0, 0.25)
        loss_after = mapped_mlp.effective_model().evaluate(x, y)[0]
        assert loss_after <= loss_before + 0.05

    def test_apply_gradient_signs_shape_check(self, mapped_mlp):
        with pytest.raises(ShapeError):
            mapped_mlp.layers[0].apply_gradient_signs(np.zeros((2, 2)), 0.5)

    def test_threshold_limits_pulses(self, mapped_mlp, blob_dataset):
        grads = mapped_mlp.gradient_sign_matrices(
            blob_dataset.x_train[:16], blob_dataset.y_train[:16]
        )
        layer = mapped_mlp.layers[0]
        n_loose = layer.apply_gradient_signs(grads[0], threshold=0.0)
        n_tight = layer.apply_gradient_signs(grads[0], threshold=0.9)
        assert n_tight < n_loose

    def test_zero_gradient_applies_nothing(self, mapped_mlp):
        layer = mapped_mlp.layers[0]
        assert layer.apply_gradient_signs(np.zeros(layer.matrix_shape), 0.5) == 0


def _weights(model):
    return [{k: v.copy() for k, v in layer.params.items()} for layer in model.layers]


def _same(a, b) -> bool:
    return all(
        x.keys() == y.keys() and all(x[k].tobytes() == y[k].tobytes() for k in x)
        for x, y in zip(a, b)
    )


def _rebuilt(network):
    """Scratch model assembled from a fresh read of every layer."""
    matrices = {m.layer_index: m.hardware_matrix() for m in network.layers}
    return network._install_matrices(matrices)


def _noisy_reads(network):
    for mapped in network.layers:
        for _rs, _cs, tile in mapped.tiles.iter_tiles():
            tile.read_noise_extra = 0.05


class TestReadMemo:
    """``effective_model`` reuses a read only while nothing it returns moved."""

    CHANGES = {
        "tile_write": lambda net: net.apply_drift(0.2),
        "set_range": lambda net: net.layers[0].set_range(
            2 * net.device_config.r_min, net.device_config.r_max
        ),
        "read_noise_extra": _noisy_reads,
        "install_matrices": lambda net: net._install_matrices(
            {m.layer_index: np.zeros(m.matrix_shape) for m in net.layers}
        ),
    }

    def test_unchanged_state_is_reused(self, mapped_mlp):
        first = _weights(mapped_mlp.effective_model())
        with PROFILER.capture() as delta:
            again = _weights(mapped_mlp.effective_model())
        assert delta.counters.get("network.effective_model_reuse") == 1
        assert "network.hardware_reads" not in delta.counters
        assert _same(again, first)

    @pytest.mark.parametrize("change", sorted(CHANGES))
    def test_change_forces_a_fresh_read(self, mapped_mlp, change):
        primed = _weights(mapped_mlp.effective_model())
        self.CHANGES[change](mapped_mlp)
        # The twin's tile streams draw the same read noise as the original.
        twin = copy.deepcopy(mapped_mlp)
        with PROFILER.capture() as delta:
            got = _weights(mapped_mlp.effective_model())
        assert "network.effective_model_reuse" not in delta.counters
        assert _same(got, _weights(_rebuilt(twin)))
        # Only the trial install leaves the hardware read where it was.
        assert _same(got, primed) == (change == "install_matrices")


def _drift_then_program(layer):
    layer.tiles.apply_drift(0.2)
    return layer.tiles.state_version, lambda: layer.program()


class TestLayerVersion:
    """``MappedLayer.version`` counts range changes only; device writes
    are counted by the tiles' ``state_version``."""

    WRITES = {
        "program": _drift_then_program,
        "tuning_pulses": lambda layer: (
            layer.tiles.state_version,
            lambda: layer.apply_gradient_signs(np.ones(layer.matrix_shape), 0.0),
        ),
        "drift": lambda layer: (
            layer.tiles.state_version,
            lambda: layer.tiles.apply_drift(0.1),
        ),
    }

    def test_set_range_bumps_version_without_a_write(self, mapped_mlp):
        layer = mapped_mlp.layers[0]
        version, state = layer.version, layer.tiles.state_version
        cfg = mapped_mlp.device_config
        layer.set_range(2 * cfg.r_min, cfg.r_max)
        assert layer.version == version + 1
        assert layer.tiles.state_version == state

    @pytest.mark.parametrize("write", sorted(WRITES))
    def test_device_write_leaves_version_alone(self, mapped_mlp, write):
        layer = mapped_mlp.layers[0]
        version = layer.version
        state, apply = self.WRITES[write](layer)
        apply()
        assert layer.version == version
        assert layer.tiles.state_version > state

    def test_rejected_range_leaves_version_alone(self, mapped_mlp):
        layer = mapped_mlp.layers[0]
        version, mapping = layer.version, layer.mapping
        cfg = mapped_mlp.device_config
        with pytest.raises(ConfigurationError):
            layer.set_range(cfg.r_max, cfg.r_min)
        assert layer.version == version
        assert layer.mapping is mapping


class TestBookkeeping:
    def test_dead_fraction_fresh(self, mapped_mlp):
        assert mapped_mlp.dead_fraction() == 0.0

    def test_aging_by_layer_keys(self, mapped_mlp):
        aging = mapped_mlp.aging_by_layer()
        assert set(aging) == {0, 2}
        for value in aging.values():
            assert value <= mapped_mlp.device_config.r_max

    def test_apply_drift_changes_hardware(self, mapped_mlp, blob_dataset):
        before = mapped_mlp.layers[0].tiles.resistances().copy()
        mapped_mlp.apply_drift(0.1)
        assert not np.allclose(before, mapped_mlp.layers[0].tiles.resistances())

    def test_clone_model_is_independent(self, trained_mlp):
        clone = clone_model(trained_mlp)
        clone.layers[0].params["W"][...] = 0.0
        assert not np.allclose(trained_mlp.layers[0].params["W"], 0.0)

    def test_effective_model_does_not_mutate_source(self, mapped_mlp, trained_mlp):
        before = trained_mlp.get_weights()
        mapped_mlp.effective_model()
        after = trained_mlp.get_weights()
        for b, a in zip(before, after):
            for key in b:
                np.testing.assert_array_equal(b[key], a[key])
