"""Unit tests for lifetime result records."""

import pytest

from repro.core.results import LifetimeResult, ScenarioComparison, WindowRecord


def make_result(key, lifetime, iters, failed=True):
    result = LifetimeResult(scenario_key=key, lifetime_applications=lifetime, failed=failed)
    for i, it in enumerate(iters):
        result.windows.append(
            WindowRecord(
                window_index=i,
                applications_total=(i + 1) * 1000,
                tuning_iterations=it,
                converged=(i < len(iters) - 1) or not failed,
                accuracy_after=0.9,
                pulses_total=i * 100,
                dead_fraction=0.0,
                aged_upper_by_layer={0: 1e5 - i * 1e3, 2: 1e5 - i * 500},
            )
        )
    return result


class TestLifetimeResult:
    def test_iteration_trace(self):
        result = make_result("t+t", 3000, [2, 5, 150])
        assert result.iteration_trace() == [2, 5, 150]

    def test_windows_survived(self):
        result = make_result("t+t", 3000, [2, 5, 150])
        assert result.windows_survived == 2

    def test_layer_aging_trace(self):
        result = make_result("t+t", 2000, [1, 2])
        traces = result.layer_aging_trace()
        assert set(traces) == {0, 2}
        assert len(traces[0]) == 2
        assert traces[0][1] < traces[0][0]


class TestScenarioComparison:
    def test_improvement_ratios(self):
        cmp = ScenarioComparison(workload="glyphs")
        cmp.add(make_result("t+t", 1000, [150]))
        cmp.add(make_result("st+t", 5000, [150]))
        cmp.add(make_result("st+at", 8000, [150]))
        assert cmp.improvement("t+t") == pytest.approx(1.0)
        assert cmp.improvement("st+t") == pytest.approx(5.0)
        assert cmp.improvement("st+at") == pytest.approx(8.0)

    def test_missing_returns_none(self):
        cmp = ScenarioComparison(workload="x")
        assert cmp.improvement("st+t") is None

    def test_zero_baseline_is_inf(self):
        cmp = ScenarioComparison(workload="x")
        cmp.add(make_result("t+t", 0, [150]))
        cmp.add(make_result("st+t", 100, [150]))
        assert cmp.improvement("st+t") == float("inf")
