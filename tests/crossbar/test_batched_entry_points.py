"""The batched entry points are bit-identical to their references.

``program_targets`` is ``program`` without the achieved-resistance copy,
and ``program_pulses`` is the per-device Eq. (5) loop of
``tests/oracles`` done as whole-array ops.  Each must leave every array
and the RNG stream exactly where its reference leaves them, on a single
crossbar and on a tiled matrix, with every source of randomness
switched on in turn: write noise, per-device variability and pulse
misses.
"""

import numpy as np
import pytest

from repro.crossbar import Crossbar, TiledMatrix
from repro.device import DeviceConfig, DeviceVariability
from tests.oracles import scalar_program_pulses

SHAPE = (7, 9)

VARIANTS = {
    "ideal": (dict(write_noise=0.0), 0.0),
    "write-noise": (dict(write_noise=0.2), 0.0),
    "variability": (dict(write_noise=0.0, variability=DeviceVariability(0.1, 0.1)), 0.0),
    "pulse-miss": (dict(write_noise=0.1), 0.3),
}


def _config(variant):
    kwargs, _ = VARIANTS[variant]
    return DeviceConfig(pulses_to_collapse=60, read_noise=0.0, **kwargs)


def _crossbar(variant):
    xb = Crossbar(*SHAPE, _config(variant), seed=3)
    xb.pulse_miss_rate = VARIANTS[variant][1]
    return xb


def _tiled(variant):
    tm = TiledMatrix(*SHAPE, tile_rows=4, tile_cols=4, config=_config(variant), seed=3)
    for _rs, _cs, tile in tm.iter_tiles():
        tile.pulse_miss_rate = VARIANTS[variant][1]
    return tm


def _tile_slices(obj):
    """``(row_slice, col_slice, tile)`` of a crossbar or a tiled matrix."""
    if isinstance(obj, Crossbar):
        return [(slice(None), slice(None), obj)]
    return list(obj.iter_tiles())


def _tiles(obj):
    return [tile for _rs, _cs, tile in _tile_slices(obj)]


def _pulse_total(obj):
    return sum(int(tile.pulse_counts.sum()) for tile in _tiles(obj))


def _assert_same_state(a, b):
    for left, right in zip(_tiles(a), _tiles(b)):
        assert left.resistance.tobytes() == right.resistance.tobytes()
        assert left.stress_time.tobytes() == right.stress_time.tobytes()
        np.testing.assert_array_equal(left.pulse_counts, right.pulse_counts)
        assert left._rng.bit_generator.state == right._rng.bit_generator.state


def _target_sequence(config, steps=6):
    """Resistance targets that revisit earlier values, so ``only_changed``
    both skips and pulses devices."""
    gen = np.random.default_rng(11)
    first = gen.uniform(config.r_min, config.r_max, SHAPE)
    sequence = [first]
    for _ in range(steps - 1):
        nxt = sequence[-1].copy()
        moved = gen.random(SHAPE) < 0.5
        nxt[moved] = gen.uniform(config.r_min, config.r_max, int(moved.sum()))
        sequence.append(nxt)
    return sequence


def _direction_sequence(steps=8):
    gen = np.random.default_rng(17)
    return [gen.integers(-1, 2, size=SHAPE) for _ in range(steps)]


def _reference_program(obj, targets, only_changed):
    for rs, cs, tile in _tile_slices(obj):
        tile.program(targets[rs, cs], only_changed=only_changed)


def _check_programming(make, variant, only_changed):
    checked, batched = make(variant), make(variant)
    for targets in _target_sequence(checked.config):
        before = _pulse_total(batched)
        _reference_program(checked, targets, only_changed)
        applied = batched.program_targets(targets, only_changed=only_changed)
        assert applied == _pulse_total(batched) - before
        _assert_same_state(checked, batched)


def _reference_pulses(obj, polarity, fraction):
    return sum(
        scalar_program_pulses(tile, polarity[rs, cs], fraction)
        for rs, cs, tile in _tile_slices(obj)
    )


def _check_pulses(make, variant, fraction=0.5):
    reference, batched = make(variant), make(variant)
    for polarity in _direction_sequence():
        before = _pulse_total(batched)
        expected = _reference_pulses(reference, polarity, fraction)
        fired = batched.program_pulses(polarity, fraction=fraction)
        assert fired == expected == _pulse_total(batched) - before
        _assert_same_state(reference, batched)


@pytest.mark.parametrize("only_changed", [True, False], ids=["changed", "all"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_crossbar_program_targets_matches_program(variant, only_changed):
    _check_programming(_crossbar, variant, only_changed)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_crossbar_program_pulses_matches_scalar_loop(variant):
    _check_pulses(_crossbar, variant)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_tiled_program_targets_matches_program(variant):
    _check_programming(_tiled, variant, only_changed=True)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_tiled_program_pulses_matches_scalar_loop(variant):
    _check_pulses(_tiled, variant, fraction=0.25)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_pulses_stay_inside_the_aged_window(variant):
    """Whatever the noise source, a tuning pulse never leaves a device
    outside its current aged window."""
    xb = _crossbar(variant)
    xb.program(_target_sequence(xb.config, steps=1)[0])
    for polarity in _direction_sequence(steps=20):
        xb.program_pulses(polarity, fraction=1.0)
        lo, hi = xb.aged_bounds()
        assert np.all(xb.resistance >= lo) and np.all(xb.resistance <= hi)
