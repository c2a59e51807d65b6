"""Graceful degradation: the recovery levers and their effect.

The single-device levers (dead-gradient masking, fault-aware range
selection) are tested mechanically.
"""

import numpy as np
import pytest

from repro.mapping import MappedNetwork
from repro.mapping.aging_aware import AgingAwareMapper
from repro.robustness import DegradationPolicy


class TestDegradationPolicy:
    def test_enabled_disabled(self):
        assert DegradationPolicy.enabled().any_enabled
        assert not DegradationPolicy.disabled().any_enabled


class TestDeadGradientMasking:
    THRESHOLD = 0.25

    def test_masked_tuner_skips_dead_gradients(self, trained_mlp, device_config):
        """A dead device holding a layer's largest |grad| cannot anchor
        the pulse threshold: the masked sweep counts exactly the healthy
        devices at or above ``threshold`` x the largest healthy |grad|.
        Unmasked, the dead device anchors it and is all that is counted.
        """
        nets = {}
        for masked in (False, True):
            nets[masked] = MappedNetwork(trained_mlp, device_config, seed=54)
            nets[masked].map_network()
            _pin_lrs(nets[masked], 0.1, seed=55)
        rng = np.random.default_rng(56)
        grads, expected = {}, 0
        for layer in nets[True].layers:
            dead = layer.dead_device_mask()
            assert dead.any() and not dead.all()
            grad = rng.normal(size=layer.matrix_shape)
            grad[np.unravel_index(np.argmax(dead), dead.shape)] = 1e3
            healthy = np.abs(grad[~dead])
            expected += int(np.count_nonzero(healthy >= self.THRESHOLD * healthy.max()))
            grads[layer.layer_index] = grad
        n_layers = len(nets[True].layers)
        assert expected > 2 * n_layers
        sweep = {
            masked: net.apply_tuning_sweep(grads, self.THRESHOLD, 0.5, mask_dead=masked)
            for masked, net in nets.items()
        }
        assert sweep == {True: expected, False: n_layers}


def _pin_lrs(net, rate, seed):
    """Weld a ``rate`` fraction of every tile's devices at LRS only."""
    rng = np.random.default_rng(seed)
    for layer in net.layers:
        for _rs, _cs, tile in layer.tiles.iter_tiles():
            u = rng.random(tile.shape)
            tile.pin_stuck(u < rate, np.zeros(tile.shape, dtype=bool))


class TestFaultAwareMapping:
    def test_collapsed_traces_filtered(self, trained_mlp, device_config):
        """Heavy stuck-at damage collapses traced windows to the
        ``min_levels`` floor: the plain mapper offers that floor as a
        candidate, the fault-aware one drops it and keeps the rest."""
        net = MappedNetwork(trained_mlp, device_config, seed=58)
        net.map_network()
        _pin_lrs(net, 0.4, seed=59)
        layer = net.layers[0]
        plain = AgingAwareMapper(fault_aware=False)
        grid = device_config.make_level_grid()
        floor = grid.r_min + (plain.min_levels - 1) * grid.step
        raw = plain.candidate_uppers(layer)
        filtered = AgingAwareMapper(fault_aware=True).candidate_uppers(layer)
        assert raw[0] == pytest.approx(floor)
        assert len(raw) >= 2
        assert filtered == raw[1:]

    def test_fault_aware_keeps_all_when_everything_collapsed(
        self, trained_mlp, device_config
    ):
        """If every trace is collapsed the filter must not empty the list."""
        net = MappedNetwork(trained_mlp, device_config, seed=60)
        net.map_network()
        layer = net.layers[0]
        for tracer in layer.tracers:
            tracer.crossbar.stress_time[...] = 1e12
        candidates = AgingAwareMapper(fault_aware=True).candidate_uppers(layer)
        assert candidates  # non-empty
