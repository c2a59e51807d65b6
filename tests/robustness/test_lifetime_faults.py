"""Fault schedules composed with the lifetime simulation.

The ISSUE acceptance property: a lifetime run with a mid-life stuck-at
burst at rate 0.01 completes without raising and reports a strictly
lower lifetime than the fault-free golden run of the same framework.
"""

import pytest

from repro.robustness import FaultSchedule


class TestLifetimeWithFaults:
    def test_midlife_stuck_at_shortens_lifetime(self, fragile_framework):
        schedule = FaultSchedule.single("stuck_at", 0.01, window=1)
        base = fragile_framework.run_scenario("st+at")
        faulty = fragile_framework.run_scenario("st+at", fault_schedule=schedule)
        # The fault-free golden run reaches the horizon...
        assert not base.failed
        # ...and the faulted run completes (no exception) but dies early.
        assert faulty.lifetime_applications < base.lifetime_applications
        assert faulty.failed

    def test_fault_free_run_unchanged_by_feature(self, fragile_framework):
        """Passing no schedule is bit-identical to the pre-feature path.

        The fault hooks must not consume RNG when idle; two runs (one
        plain, one with an *empty* concept of faults, i.e. None) agree
        window for window.
        """
        a = fragile_framework.run_scenario("st+at")
        b = fragile_framework.run_scenario("st+at", fault_schedule=None)
        assert a.lifetime_applications == b.lifetime_applications
        assert [w.accuracy_after for w in a.windows] == [
            w.accuracy_after for w in b.windows
        ]

    def test_faulted_run_is_deterministic(self, fragile_framework):
        schedule = FaultSchedule.single("stuck_at", 0.01, window=1)
        a = fragile_framework.run_scenario("st+at", fault_schedule=schedule)
        b = fragile_framework.run_scenario("st+at", fault_schedule=schedule)
        assert a.lifetime_applications == b.lifetime_applications
        assert [w.accuracy_after for w in a.windows] == [
            w.accuracy_after for w in b.windows
        ]

    def test_drift_schedule_runs_to_completion(self, mini_framework):
        schedule = FaultSchedule.single("drift", 0.15, window=1)
        result = mini_framework.run_scenario("st+at", fault_schedule=schedule)
        assert result.lifetime_applications >= 0
        assert len(result.windows) >= 1


class TestMiniFrameworkTunes:
    """The campaign fixture exercises the tuner, or its tests see nothing.

    A fixture whose runs never tune cannot tell a working tuner (or
    dead-gradient masking) from a broken one.
    """

    @pytest.mark.parametrize(
        "scenario, schedule",
        [
            ("t+t", None),
            ("st+t", None),
            ("st+at", None),
            ("st+t", FaultSchedule.single("stuck_at", 0.005, window=1)),
            ("st+at", FaultSchedule.single("stuck_at", 0.005, window=1)),
        ],
        ids=["t+t", "st+t", "st+at", "st+t-stuck", "st+at-stuck"],
    )
    def test_tunes_in_at_least_half_the_windows(
        self, mini_framework, scenario, schedule
    ):
        result = mini_framework.run_scenario(scenario, fault_schedule=schedule)
        tuned = sum(1 for w in result.windows if w.tuning_iterations > 0)
        assert len(result.windows) == mini_framework.config.lifetime.max_windows
        assert 2 * tuned >= len(result.windows)

    def test_masking_changes_a_faulted_run(self, mini_framework):
        """Under 2 % stuck-at the tuner pulses dead devices unless it masks
        them, so the two ST+T runs part ways."""
        schedule = FaultSchedule.single("stuck_at", 0.02, window=1)
        raw = mini_framework.run_scenario("st+t", fault_schedule=schedule)
        masked = mini_framework.run_scenario(
            "st+t", fault_schedule=schedule, degradation=True
        )
        assert masked.to_dict()["windows"] != raw.to_dict()["windows"]
