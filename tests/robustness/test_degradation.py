"""Dead-gradient masking: the lever itself, and the campaign flag
that turns it on."""

import numpy as np

from repro.core.lifetime import LifetimeSimulator
from repro.mapping import MappedNetwork
from repro.robustness import FaultCampaign, build_grid


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


class TestDegradationFlag:
    def test_deg_points_and_only_they_mask_dead_devices(
        self, mini_framework, monkeypatch
    ):
        """A campaign's ``/deg`` flag reaches the tuner's
        ``mask_dead_devices``; its ``/raw`` and baseline points do not."""
        seen = []
        run = LifetimeSimulator.run

        def spy(self, *args, **kwargs):
            seen.append(self.config.tuning.mask_dead_devices)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(LifetimeSimulator, "run", spy)
        points = build_grid(kinds=("stuck_at",), rates=(0.02,))
        FaultCampaign(mini_framework, scenario="st+t").run(points)
        assert [p.name for p in points] == [
            "baseline", "stuck_at@0.02/raw", "stuck_at@0.02/deg"
        ]
        assert seen == [False, False, True]
