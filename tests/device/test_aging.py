"""Unit + property tests for the Arrhenius aging model (Eq. 6-7)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.aging import BOLTZMANN_EV, AgingParams, ArrheniusAging
from repro.exceptions import ConfigurationError


@pytest.fixture()
def calibrated():
    params = AgingParams.calibrated(1e4, 1e5, pulses_to_collapse=1e4)
    return ArrheniusAging(params)


class TestAgingParams:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AgingParams(prefactor_max=-1.0, prefactor_min=0.0)
        with pytest.raises(ConfigurationError):
            AgingParams(1.0, 1.0, activation_energy_max=-0.1)
        with pytest.raises(ConfigurationError):
            AgingParams(1.0, 1.0, time_exponent_max=0.0)

    def test_calibration_validation(self):
        with pytest.raises(ConfigurationError):
            AgingParams.calibrated(1e5, 1e4, pulses_to_collapse=100)
        with pytest.raises(ConfigurationError):
            AgingParams.calibrated(1e4, 1e5, pulses_to_collapse=0)
        with pytest.raises(ConfigurationError):
            AgingParams.calibrated(1e4, 1e5, 100, min_bound_fraction=1.0)

    def test_calibration_hits_target(self, calibrated):
        """At the calibration point the upper bound has dropped by the
        full fresh window."""
        t_collapse = 1e4 * 1e-6
        drop = calibrated.degradation_max(300.0, t_collapse)
        assert drop == pytest.approx(9e4, rel=1e-9)

    def test_min_bound_fraction(self):
        aging = ArrheniusAging(
            AgingParams.calibrated(1e4, 1e5, 1e4, min_bound_fraction=0.5)
        )
        t = 1e4 * 1e-6
        assert aging.degradation_min(300.0, t) == pytest.approx(4.5e4, rel=1e-9)


class TestDegradation:
    def test_zero_at_zero_time(self, calibrated):
        assert calibrated.degradation_max(300.0, 0.0) == 0.0
        assert calibrated.degradation_min(300.0, 0.0) == 0.0

    def test_monotone_in_time(self, calibrated):
        times = np.linspace(0, 1e-2, 20)
        drops = calibrated.degradation_max(300.0, times)
        assert np.all(np.diff(drops) > 0)

    def test_arrhenius_temperature_acceleration(self, calibrated):
        """Hotter devices age faster, with the exact Arrhenius ratio."""
        cold = calibrated.degradation_max(300.0, 1e-3)
        hot = calibrated.degradation_max(350.0, 1e-3)
        ea = calibrated.params.activation_energy_max
        expected = np.exp(ea / BOLTZMANN_EV * (1 / 300.0 - 1 / 350.0))
        assert hot / cold == pytest.approx(expected, rel=1e-9)

    def test_rejects_nonpositive_temperature(self, calibrated):
        with pytest.raises(ConfigurationError):
            calibrated.degradation_max(0.0, 1.0)

    def test_vectorized_matches_scalar(self, calibrated):
        times = np.array([1e-4, 2e-4, 3e-4])
        vec = calibrated.degradation_max(300.0, times)
        for t, v in zip(times, vec):
            assert calibrated.degradation_max(300.0, float(t)) == pytest.approx(v)

    def test_negative_time_clamped(self, calibrated):
        assert calibrated.degradation_max(300.0, -1.0) == 0.0


class TestAgedBounds:
    def test_fresh_at_zero(self, calibrated):
        lo, hi = calibrated.aged_bounds(1e4, 1e5, 300.0, 0.0)
        assert (lo, hi) == (1e4, 1e5)

    def test_window_shrinks_from_top(self, calibrated):
        """f > g so the upper bound falls faster: Fig. 4's scenario."""
        lo, hi = calibrated.aged_bounds(1e4, 1e5, 300.0, 5e-3)
        assert hi < 1e5
        assert lo < 1e4
        assert (1e5 - hi) > (1e4 - lo)

    def test_original_lower_bound_stays_inside(self, calibrated):
        """Paper Section IV-B: the original lower bounds usually remain
        in the aged range."""
        lo, hi = calibrated.aged_bounds(1e4, 1e5, 300.0, 2e-3)
        assert lo <= 1e4 <= hi

    def test_collapse_keeps_ordering(self, calibrated):
        lo, hi = calibrated.aged_bounds(1e4, 1e5, 300.0, 1.0)
        assert hi >= lo >= 1.0  # positive floor

    def test_array_bounds(self, calibrated):
        stress = np.array([[0.0, 1e-3], [2e-3, 3e-3]])
        lo, hi = calibrated.aged_bounds(
            np.full((2, 2), 1e4), np.full((2, 2), 1e5), 300.0, stress
        )
        assert lo.shape == hi.shape == (2, 2)
        assert np.all(np.diff(hi.ravel()) < 0)  # more stress, lower bound


class TestCollapseTime:
    def test_analytic_case(self, calibrated):
        t = calibrated.stress_time_to_collapse(1e4, 1e5, 300.0)
        lo, hi = calibrated.aged_bounds(1e4, 1e5, 300.0, t)
        assert hi - lo == pytest.approx(0.0, abs=1.0)

    def test_infinite_when_g_beats_f(self):
        params = AgingParams(prefactor_max=1.0, prefactor_min=2.0)
        aging = ArrheniusAging(params)
        assert aging.stress_time_to_collapse(1e4, 1e5, 300.0) == float("inf")

    def test_bisection_case(self):
        params = AgingParams(
            prefactor_max=1e10,
            prefactor_min=1e8,
            time_exponent_max=0.9,
            time_exponent_min=0.7,
        )
        aging = ArrheniusAging(params)
        t = aging.stress_time_to_collapse(1e4, 1e5, 300.0)
        assert np.isfinite(t)
        lo, hi = aging.aged_bounds(1e4, 1e5, 300.0, t)
        assert hi - lo == pytest.approx(0.0, abs=100.0)

    def test_zero_window(self, calibrated):
        assert calibrated.stress_time_to_collapse(1e4, 1e4, 300.0) == 0.0


class TestProperties:
    @given(
        t1=st.floats(0.0, 1e-2),
        t2=st.floats(0.0, 1e-2),
        temp=st.floats(250.0, 400.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotonicity_property(self, t1, t2, temp):
        """Aging is irreversible: more stress never enlarges the window."""
        aging = ArrheniusAging(AgingParams.calibrated(1e4, 1e5, 1e4))
        lo1, hi1 = aging.aged_bounds(1e4, 1e5, temp, min(t1, t2))
        lo2, hi2 = aging.aged_bounds(1e4, 1e5, temp, max(t1, t2))
        assert hi2 <= hi1 + 1e-9
        assert (hi2 - lo2) <= (hi1 - lo1) + 1e-9

    @given(
        ptc=st.floats(10.0, 1e6),
        frac=st.floats(0.0, 0.9),
        exp_max=st.floats(0.5, 2.0),
        exp_min=st.floats(0.5, 2.0),
        ea=st.floats(0.1, 1.0),
        temp=st.floats(250.0, 400.0),
        times=st.lists(st.floats(0.0, 1e3), min_size=2, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounds_nonincreasing_any_params(
        self, ptc, frac, exp_max, exp_min, ea, temp, times
    ):
        """Aging is irreversible for *any* calibration (endurance target,
        bound fraction, exponents, activation energy) and temperature:
        both aged bounds are monotonically non-increasing in accumulated
        stress and never exceed their fresh values.  (The *width* may
        transiently grow when ``g`` outpaces ``f`` — mismatched
        exponents — so monotonicity is asserted per bound, not on the
        width.)"""
        base = AgingParams.calibrated(
            1e4, 1e5, ptc, min_bound_fraction=frac, activation_energy=ea
        )
        aging = ArrheniusAging(
            AgingParams(
                prefactor_max=base.prefactor_max,
                prefactor_min=base.prefactor_min,
                activation_energy_max=ea,
                activation_energy_min=ea,
                time_exponent_max=exp_max,
                time_exponent_min=exp_min,
            )
        )
        stress = np.sort(np.asarray(times, dtype=np.float64))
        lo, hi = aging.aged_bounds(
            np.full_like(stress, 1e4), np.full_like(stress, 1e5), temp, stress
        )
        lo, hi = np.asarray(lo), np.asarray(hi)
        assert np.all(np.diff(hi) <= 1e-9)
        assert np.all(np.diff(lo) <= 1e-9)
        assert np.all(lo <= hi)
        assert np.all(hi <= 1e5) and np.all(lo <= 1e4)

    @given(
        r_min=st.floats(1.0, 1e5),
        window=st.floats(1e-3, 1e6),
        temp=st.floats(200.0, 500.0),
        stress=st.floats(0.0, 1e6),
        ptc=st.floats(1.0, 1e8),
        frac=st.floats(0.0, 0.99),
        exp_max=st.floats(0.3, 3.0),
        exp_min=st.floats(0.3, 3.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_bounds_never_invert(
        self, r_min, window, temp, stress, ptc, frac, exp_max, exp_min
    ):
        """``aged_bounds`` is a total function on its domain: whatever the
        stress, temperature or calibration, it returns ``1.0 <= lo <= hi``
        (conductance 1/R stays finite, the window never inverts)."""
        base = AgingParams.calibrated(
            r_min, r_min + window, ptc, min_bound_fraction=frac
        )
        aging = ArrheniusAging(
            AgingParams(
                prefactor_max=base.prefactor_max,
                prefactor_min=base.prefactor_min,
                time_exponent_max=exp_max,
                time_exponent_min=exp_min,
            )
        )
        lo, hi = aging.aged_bounds(r_min, r_min + window, temp, stress)
        assert 1.0 <= lo <= hi
        # Array path must agree with the scalar path bit-for-bit.
        lo_v, hi_v = aging.aged_bounds(
            np.array([r_min]), np.array([r_min + window]), temp, np.array([stress])
        )
        assert float(lo_v[0]) == lo and float(hi_v[0]) == hi

    @given(
        ptc=st.floats(10.0, 1e6),
        frac=st.floats(0.0, 0.9),
    )
    @settings(max_examples=50, deadline=None)
    def test_calibration_property(self, ptc, frac):
        """For any endurance target, the window width reaches zero at
        exactly the calibrated pulse count."""
        aging = ArrheniusAging(
            AgingParams.calibrated(1e4, 1e5, ptc, min_bound_fraction=frac)
        )
        t = ptc * 1e-6
        f = aging.degradation_max(300.0, t)
        g = aging.degradation_min(300.0, t)
        assert f - g == pytest.approx((1 - frac) * 9e4, rel=1e-9)


@pytest.mark.parametrize("time_exponent", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("min_bound_fraction", [0.0, 0.2, 0.4])
class TestCalibrationContract:
    """The calibration targets hold for every exponent and lower-bound
    fraction, not only the defaults.  The 60-100 kOhm window keeps the
    lower bound clear of its 1 Ohm floor up to collapse."""

    @staticmethod
    def _aging(time_exponent, min_bound_fraction):
        params = AgingParams.calibrated(
            6e4,
            1e5,
            pulses_to_collapse=500,
            pulse_width=1e-6,
            min_bound_fraction=min_bound_fraction,
            time_exponent=time_exponent,
        )
        return ArrheniusAging(params)

    def test_bounds_at_calibration_time(self, time_exponent, min_bound_fraction):
        """After ``pulses_to_collapse`` pulses the upper bound has dropped
        by the whole fresh window and the lower bound by its fraction."""
        aging = self._aging(time_exponent, min_bound_fraction)
        t_cal = 500 * 1e-6
        assert aging.degradation_max(300.0, t_cal) == pytest.approx(4e4, rel=1e-12)
        assert aging.degradation_min(300.0, t_cal) == pytest.approx(
            min_bound_fraction * 4e4, rel=1e-12, abs=1e-9
        )

    def test_collapse_time_closed_form(self, time_exponent, min_bound_fraction):
        """The window narrows by (1 - fraction) * W * (t / t_cal)**m, so
        it closes at t_cal * (1 - fraction)**(-1/m)."""
        aging = self._aging(time_exponent, min_bound_fraction)
        t_cal = 500 * 1e-6
        expected = t_cal * (1.0 - min_bound_fraction) ** (-1.0 / time_exponent)
        t_dead = aging.stress_time_to_collapse(6e4, 1e5, 300.0)
        assert t_dead == pytest.approx(expected, rel=1e-9)
        lo, hi = aging.aged_bounds(6e4, 1e5, 300.0, t_dead * (1 + 1e-9))
        assert hi == lo
        lo, hi = aging.aged_bounds(6e4, 1e5, 300.0, t_dead * 0.99)
        assert hi > lo

    def test_window_shrinks_from_the_top(self, time_exponent, min_bound_fraction):
        """Fig. 4: the upper bound falls at least as fast as the lower one,
        so the fresh lower level is never lost first."""
        aging = self._aging(time_exponent, min_bound_fraction)
        t = np.linspace(0.0, 500e-6, 41)
        lo, hi = aging.aged_bounds(np.full(41, 6e4), np.full(41, 1e5), 300.0, t)
        assert np.all(np.diff(hi) <= 0) and np.all(np.diff(lo) <= 0)
        assert np.all(1e5 - hi >= 6e4 - lo)
