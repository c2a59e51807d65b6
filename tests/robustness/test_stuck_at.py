"""Stuck-at faults: ``FaultSchedule.apply`` draws the masks and
``Crossbar.pin_stuck`` welds the devices."""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro.crossbar import Crossbar, TiledMatrix
from repro.device import AgingParams, DeviceConfig
from repro.exceptions import ConfigurationError
from repro.mapping import MappedNetwork
from repro.nn import Activation, Dense, Sequential
from repro.robustness import FaultSchedule


def _stuck_at(network, rate, seed):
    FaultSchedule.single("stuck_at", rate, window=0).apply(
        network, 0, np.random.default_rng(seed)
    )


def _tiles(network):
    return [tile for layer in network.layers for _rs, _cs, tile in layer.tiles.iter_tiles()]


def _stuck_masks(tile):
    """``(lrs, hrs)`` read back from a tile's state: a stuck device sits
    at twice the collapse time, at a fresh-window extreme."""
    collapse = tile.aging.stress_time_to_collapse(
        float(np.min(tile.r_fresh_min)),
        float(np.max(tile.r_fresh_max)),
        tile.config.temperature,
    )
    stuck = tile.stress_time == 2.0 * collapse
    lrs = stuck & (tile.resistance == tile.r_fresh_min)
    hrs = stuck & (tile.resistance == tile.r_fresh_max)
    assert np.array_equal(lrs | hrs, stuck) and not np.any(lrs & hrs)
    return lrs, hrs


def _grid(rows, cols, config):
    """A bare one-layer "network": all :meth:`FaultSchedule.apply` reads."""
    tiles = TiledMatrix(rows, cols, config=config, seed=0)
    return SimpleNamespace(layers=[SimpleNamespace(tiles=tiles)])


class TestPinnedDraw:
    """The stuck-at draw and pinning, recorded before ``pin_stuck`` and
    the ``(kind, window, rate)`` event existed: the refactor moved the
    code, not one device."""

    COUNTS = [(3, 2), (1, 3), (4, 4), (1, 3), (2, 2), (0, 1), (3, 0)]
    DIGEST = "f856ff5a0055f235f31d75a8195ab4aad95f9f489eff9c5e7022c6aaae12aa75"

    def test_masks_and_state_match_the_recorded_run(self):
        model = Sequential([Dense(40), Activation("relu"), Dense(10)], seed=4).build((30,))
        config = DeviceConfig(pulses_to_collapse=100, write_noise=0.05, read_noise=0.0)
        net = MappedNetwork(model, config, tile_rows=16, tile_cols=24, seed=31)
        net.map_network()
        FaultSchedule.single("stuck_at", 0.02, window=0).apply(
            net, 0, np.random.default_rng(7)
        )
        digest = hashlib.sha256()
        counts = []
        for tile in _tiles(net):
            lrs, hrs = _stuck_masks(tile)
            counts.append((int(lrs.sum()), int(hrs.sum())))
            for array in (np.packbits(lrs), np.packbits(hrs), tile.resistance, tile.stress_time):
                digest.update(np.ascontiguousarray(array).tobytes())
        assert counts == self.COUNTS
        assert digest.hexdigest() == self.DIGEST


class TestPinStuck:
    def test_lrs_and_hrs_pinned_to_fresh_extremes(self, device_config):
        xb = Crossbar(20, 20, device_config, seed=4)
        u = np.random.default_rng(5).random(xb.shape)
        lrs, hrs = u < 0.1, u > 0.9
        xb.pin_stuck(lrs, hrs)
        np.testing.assert_array_equal(xb.resistance[lrs], xb.r_fresh_min[lrs])
        np.testing.assert_array_equal(xb.resistance[hrs], xb.r_fresh_max[hrs])
        assert xb.dead_mask()[lrs | hrs].all()
        assert not xb.dead_mask()[~(lrs | hrs)].any()

    def test_stuck_devices_ignore_programming_and_pulses(self, device_config):
        xb = Crossbar(20, 20, device_config, seed=6)
        u = np.random.default_rng(7).random(xb.shape)
        stuck = u < 0.15
        xb.pin_stuck(stuck, np.zeros_like(stuck))
        before = xb.resistance.copy()
        xb.program(np.full(xb.shape, 5e4), only_changed=False)
        np.testing.assert_array_equal(xb.resistance[stuck], before[stuck])
        # Healthy devices did move.
        assert not np.allclose(xb.resistance[~stuck], before[~stuck])
        moved = xb.resistance.copy()
        xb.program_pulses(np.ones(xb.shape, dtype=np.int64))
        np.testing.assert_array_equal(xb.resistance[stuck], moved[stuck])
        assert not np.allclose(xb.resistance[~stuck], moved[~stuck])

    def test_rejects_device_without_endurance_limit(self):
        """A stuck device is pinned by exhausting its endurance; a device
        whose window never collapses cannot be pinned that way."""
        config = DeviceConfig(
            aging_params=AgingParams(prefactor_max=1.0, prefactor_min=2.0)
        )
        xb = Crossbar(4, 4, config, seed=10)
        stuck = np.ones(xb.shape, dtype=bool)
        with pytest.raises(ConfigurationError, match="never collapses"):
            xb.pin_stuck(stuck, np.zeros_like(stuck))
        with pytest.raises(ConfigurationError, match="never collapses"):
            _stuck_at(_grid(4, 4, config), 0.5, seed=11)


class TestStuckAtEvent:
    def test_halves_split_at_the_requested_rate(self, device_config):
        """LRS and HRS each take half the rate, within a 4-sigma band."""
        net = _grid(300, 300, device_config)
        _stuck_at(net, 0.1, seed=17)
        n = 0
        counts = np.zeros(2)
        for tile in _tiles(net):
            lrs, hrs = _stuck_masks(tile)
            counts += lrs.sum(), hrs.sum()
            n += tile.rows * tile.cols
        sigma = np.sqrt(n * 0.05 * 0.95)
        assert np.all(np.abs(counts - n * 0.05) <= 4.0 * sigma)

    def test_same_seed_identical_network(self, trained_mlp, device_config):
        nets = []
        for _ in range(2):
            net = MappedNetwork(trained_mlp, device_config, seed=21)
            _stuck_at(net, 0.1, seed=22)
            nets.append(net)
        for a, b in zip(*(_tiles(n) for n in nets)):
            np.testing.assert_array_equal(a.resistance, b.resistance)
            np.testing.assert_array_equal(a.stress_time, b.stress_time)
            np.testing.assert_array_equal(a.dead_mask(), b.dead_mask())

    def test_different_seed_differs(self, device_config):
        a, b = _grid(64, 64, device_config), _grid(64, 64, device_config)
        _stuck_at(a, 0.2, seed=42)
        _stuck_at(b, 0.2, seed=43)
        assert not np.array_equal(_stuck_masks(_tiles(a)[0])[0], _stuck_masks(_tiles(b)[0])[0])

    def test_realized_fraction(self, trained_mlp, device_config):
        net = MappedNetwork(trained_mlp, device_config, seed=10)
        _stuck_at(net, 0.16, seed=11)
        tiles = _tiles(net)
        stuck = sum(int(np.count_nonzero(np.logical_or(*_stuck_masks(t)))) for t in tiles)
        n = sum(t.rows * t.cols for t in tiles)
        assert abs(stuck - n * 0.16) <= 4.0 * np.sqrt(n * 0.16 * 0.84)
        assert net.dead_fraction() >= stuck / n - 1e-9

    def test_zero_rate_pins_nothing(self, device_config):
        net = _grid(10, 10, device_config)
        _stuck_at(net, 0.0, seed=3)
        assert not _tiles(net)[0].dead_mask().any()

    def test_accuracy_degrades_with_faults(self, trained_mlp, device_config, blob_dataset):
        clean = MappedNetwork(trained_mlp, device_config, seed=12)
        clean.map_network()
        acc_clean = clean.score(blob_dataset.x_test, blob_dataset.y_test)

        faulty = MappedNetwork(trained_mlp, device_config, seed=12)
        _stuck_at(faulty, 0.6, seed=13)
        faulty.map_network()
        acc_faulty = faulty.score(blob_dataset.x_test, blob_dataset.y_test)
        assert acc_faulty <= acc_clean
