"""Unit + property tests for the regularizers, especially the paper's
two-segment skewed penalty (Eq. 8-10)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.nn.regularizers import (
    L2Regularizer,
    SkewedL2Regularizer,
    beta_from_std,
)

finite_floats = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


class TestL2:
    def test_known_penalty(self):
        reg = L2Regularizer(lam=0.5)
        w = np.array([1.0, 2.0])
        assert reg.penalty(w) == pytest.approx(2.5)

    def test_gradient(self):
        reg = L2Regularizer(lam=0.5)
        w = np.array([1.0, -2.0])
        np.testing.assert_allclose(reg.gradient(w), [1.0, -2.0])

    def test_rejects_negative_lambda(self):
        with pytest.raises(ConfigurationError):
            L2Regularizer(-1.0)


class TestSkewedL2:
    def test_rejects_lambda1_below_lambda2(self):
        with pytest.raises(ConfigurationError, match="lambda1 >= lambda2"):
            SkewedL2Regularizer(beta=0.0, lambda1=0.1, lambda2=0.2)

    def test_rejects_negative_penalties(self):
        with pytest.raises(ConfigurationError):
            SkewedL2Regularizer(beta=0.0, lambda1=-0.1, lambda2=-0.2)

    def test_penalty_is_zero_at_beta(self):
        reg = SkewedL2Regularizer(beta=0.3, lambda1=1.0, lambda2=0.1)
        assert reg.penalty(np.array([0.3])) == 0.0

    def test_left_side_penalized_more(self):
        """Eq. (9)-(10): same distance, lambda1 applies left of beta."""
        reg = SkewedL2Regularizer(beta=0.0, lambda1=1.0, lambda2=0.1)
        left = reg.penalty(np.array([-0.5]))
        right = reg.penalty(np.array([0.5]))
        assert left == pytest.approx(10 * right)

    def test_gradient_points_towards_beta(self):
        reg = SkewedL2Regularizer(beta=0.2, lambda1=1.0, lambda2=0.5)
        g = reg.gradient(np.array([-1.0, 1.0]))
        assert g[0] < 0  # gradient descent moves -g: pushes -1.0 up
        assert g[1] > 0  # pushes 1.0 down

    def test_gradient_matches_numeric(self, rng):
        reg = SkewedL2Regularizer(beta=0.1, lambda1=2.0, lambda2=0.3)
        w = rng.normal(size=12)
        w[np.abs(w - 0.1) < 1e-3] += 0.01  # avoid the kink at beta
        eps = 1e-7
        numeric = np.zeros_like(w)
        for i in range(w.size):
            wp, wm = w.copy(), w.copy()
            wp[i] += eps
            wm[i] -= eps
            numeric[i] = (reg.penalty(wp) - reg.penalty(wm)) / (2 * eps)
        np.testing.assert_allclose(reg.gradient(w), numeric, atol=1e-5)

    def test_penalty_profile_shape(self):
        """The Fig. 7 profile: steep left branch, shallow right branch."""
        reg = SkewedL2Regularizer(beta=0.0, lambda1=5.0, lambda2=0.5)
        xs = np.linspace(-1, 1, 101)
        prof = reg.penalty_profile(xs)
        assert prof[0] > prof[-1]  # same |distance|, left costs more
        assert prof[50] == pytest.approx(0.0)  # zero at beta

    @given(
        beta=finite_floats,
        l1=st.floats(0.1, 10.0),
        ratio=st.floats(0.0, 1.0),
        w=st.lists(finite_floats, min_size=1, max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_penalty_nonnegative_and_consistent(self, beta, l1, ratio, w):
        """Property: penalty >= 0 and equals the sum of the two segments."""
        l2 = l1 * ratio
        reg = SkewedL2Regularizer(beta=beta, lambda1=l1, lambda2=l2)
        w = np.asarray(w)
        total = reg.penalty(w)
        assert total >= 0.0
        left = w[w < beta]
        right = w[w >= beta]
        manual = l1 * np.sum((left - beta) ** 2) + l2 * np.sum((right - beta) ** 2)
        assert total == pytest.approx(manual, rel=1e-9, abs=1e-12)

    @given(
        w=st.lists(finite_floats, min_size=2, max_size=30),
        l1=st.floats(0.5, 5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_gradient_step_reduces_penalty(self, w, l1):
        """Property: a small step against the gradient never increases
        the penalty (convexity of the two-segment quadratic)."""
        reg = SkewedL2Regularizer(beta=0.0, lambda1=l1, lambda2=l1 / 10)
        w = np.asarray(w)
        before = reg.penalty(w)
        after = reg.penalty(w - 1e-4 * reg.gradient(w))
        assert after <= before + 1e-9


class TestBetaFromStd:
    def test_scales_standard_deviation(self, rng):
        w = rng.normal(0.0, 2.0, size=10_000)
        assert beta_from_std(w, 0.5) == pytest.approx(1.0, rel=0.05)

    def test_negative_scale_gives_negative_beta(self, rng):
        w = rng.normal(size=1000)
        assert beta_from_std(w, -1.0) < 0
