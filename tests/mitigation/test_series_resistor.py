"""Unit tests for the series-resistor mitigation (paper ref [11])."""

import pytest

from repro.device import DeviceConfig
from repro.exceptions import ConfigurationError
from repro.mitigation import SeriesResistor


class TestSeriesResistor:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SeriesResistor(-1.0)

    def test_zero_is_identity(self):
        cfg = DeviceConfig()
        out = SeriesResistor(0.0).apply(cfg)
        assert out.r_min == cfg.r_min
        assert out.r_max == cfg.r_max
        assert out.write_noise == cfg.write_noise

    def test_window_shifts_up(self):
        cfg = DeviceConfig()
        out = SeriesResistor(5e3).apply(cfg)
        assert out.r_min == cfg.r_min + 5e3
        assert out.r_max == cfg.r_max + 5e3

    def test_write_noise_suppressed(self):
        cfg = DeviceConfig(write_noise=0.1)
        out = SeriesResistor(1e4).apply(cfg)
        assert out.write_noise == pytest.approx(0.05)

    def test_conductance_compression_below_one(self):
        cfg = DeviceConfig()
        sr = SeriesResistor(1e4)
        compression = sr.conductance_compression(cfg)
        assert 0.0 < compression < 1.0

    def test_more_resistance_more_compression(self):
        cfg = DeviceConfig()
        assert SeriesResistor(2e4).conductance_compression(cfg) < SeriesResistor(
            5e3
        ).conductance_compression(cfg)

    @pytest.mark.parametrize("r_series", [50.0, 5e3, 5e5])
    def test_compression_matches_divider(self, r_series):
        """The protected window is the bare one shifted by ``r_s``."""
        cfg = DeviceConfig()
        g_span = 1.0 / cfg.r_min - 1.0 / cfg.r_max
        g_protected = 1.0 / (cfg.r_min + r_series) - 1.0 / (cfg.r_max + r_series)
        assert SeriesResistor(r_series).conductance_compression(cfg) == pytest.approx(
            g_protected / g_span, rel=1e-12
        )

    def test_protected_cell_ages_slower(self):
        """Current limiting: a protected cell accumulates less stress
        for the same worst-case programming traffic."""
        from repro.device import Memristor

        cfg = DeviceConfig(pulses_to_collapse=300, write_noise=0.0)
        bare = Memristor(cfg, seed=1)
        prot_cfg = SeriesResistor(1e4).apply(cfg)
        protected = Memristor(prot_cfg, seed=1)
        for _ in range(50):
            bare.program(cfg.r_min)
            protected.program(prot_cfg.r_min)
        assert protected.stress_time < bare.stress_time

    def test_calibration_frozen_at_bare_device(self):
        cfg = DeviceConfig(pulses_to_collapse=300)
        prot = SeriesResistor(1e4).apply(cfg)
        assert prot.aging_params is not None
        assert prot.aging_params.prefactor_max == cfg.make_aging_model().params.prefactor_max
