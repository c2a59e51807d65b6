"""Unit tests for pulse-shaping mitigation (paper ref [9])."""

import dataclasses

import numpy as np
import pytest

from repro.crossbar import Crossbar
from repro.device import DeviceConfig
from repro.exceptions import ConfigurationError
from repro.mitigation import PULSE_SHAPES, PulseShaping
from repro.mitigation.pulse_shaping import PulseShape


def _forced_program(cell, target):
    cell.program(np.full((1, 1), target), only_changed=False)


class TestPulseShape:
    def test_registry_contains_paper_waveforms(self):
        assert {"dc", "triangular", "sinusoidal"} <= set(PULSE_SHAPES)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PulseShape("x", stress_scale=0.0, pulses_per_op=1)
        with pytest.raises(ConfigurationError):
            PulseShape("x", stress_scale=0.5, pulses_per_op=0)

    def test_net_benefit(self):
        tri = PULSE_SHAPES["triangular"]
        assert tri.net_benefit == pytest.approx(1.0 / (0.25 * 2))
        assert PULSE_SHAPES["dc"].net_benefit == 1.0

    def test_shaped_waveforms_are_net_wins(self):
        for name, shape in PULSE_SHAPES.items():
            if name != "dc":
                assert shape.net_benefit > 1.0


class TestPulseShaping:
    def test_unknown_shape(self):
        with pytest.raises(ConfigurationError):
            PulseShaping("square-ish")

    def test_dc_apply_preserves_stress_rate(self):
        cfg = DeviceConfig(pulses_to_collapse=500)
        shaped = PulseShaping("dc").apply(cfg)
        assert shaped.pulse_width == cfg.pulse_width

    def test_shaped_config_ages_slower(self):
        """The headline of ref [9]: same programming traffic, longer
        life under triangular pulses."""
        cfg = DeviceConfig(pulses_to_collapse=300, write_noise=0.0)
        dc_cell = Crossbar(1, 1, cfg, seed=1)
        tri_cell = Crossbar(1, 1, PulseShaping("triangular").apply(cfg), seed=1)
        for _ in range(100):
            _forced_program(dc_cell, cfg.r_min)
            _forced_program(tri_cell, cfg.r_min)
        assert tri_cell.stress_time[0, 0] < dc_cell.stress_time[0, 0]
        _lo_dc, hi_dc = dc_cell.aged_bounds()
        _lo_tri, hi_tri = tri_cell.aged_bounds()
        assert hi_tri[0, 0] > hi_dc[0, 0]

    def test_calibration_frozen_at_dc(self):
        """Rescaling the pulse width must not silently re-calibrate the
        endurance target (that would cancel the benefit)."""
        cfg = DeviceConfig(pulses_to_collapse=300)
        shaped = PulseShaping("triangular").apply(cfg)
        assert shaped.aging_params is not None
        dc_params = cfg.make_aging_model().params
        assert shaped.aging_params.prefactor_max == dc_params.prefactor_max


@pytest.mark.parametrize("name", sorted(PULSE_SHAPES))
class TestEveryShape:
    def test_apply_changes_only_stress_accounting(self, name):
        """A shape is a pure ``DeviceConfig`` transform: the input is
        left alone and only the pulse width and the frozen calibration
        differ in the output."""
        cfg = DeviceConfig(pulses_to_collapse=300)
        before = dataclasses.asdict(cfg)
        shaped = PulseShaping(name).apply(cfg)
        assert dataclasses.asdict(cfg) == before
        changed = {
            f.name
            for f in dataclasses.fields(cfg)
            if getattr(shaped, f.name) != getattr(cfg, f.name)
        }
        assert changed <= {"pulse_width", "aging_params"}
        shape = PULSE_SHAPES[name]
        assert shaped.pulse_width == pytest.approx(
            cfg.pulse_width * shape.stress_scale * shape.pulses_per_op
        )

    def test_stress_per_operation_is_dc_over_net_benefit(self, name):
        cfg = DeviceConfig(pulses_to_collapse=10_000, write_noise=0.0)
        dc_cell = Crossbar(1, 1, cfg, seed=1)
        shaped_cell = Crossbar(1, 1, PulseShaping(name).apply(cfg), seed=1)
        for target in (cfg.r_min, cfg.r_max) * 5:
            _forced_program(dc_cell, target)
            _forced_program(shaped_cell, target)
        assert shaped_cell.stress_time[0, 0] == pytest.approx(
            dc_cell.stress_time[0, 0] / PULSE_SHAPES[name].net_benefit, rel=1e-9
        )
