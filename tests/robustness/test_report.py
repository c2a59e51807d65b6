"""SurvivabilityReport lookups, serialization and rendering, on
hand-built records (no simulation)."""

import json
import math

import pytest

from repro.robustness import SurvivabilityReport
from repro.robustness.report import SurvivabilityRecord


def _record(point, kind="stuck_at", rate=0.01, degradation=False, lifetime=500,
            failed=True):
    return SurvivabilityRecord(
        point=point,
        fault_kind=kind,
        fault_rate=rate,
        degradation=degradation,
        lifetime_applications=lifetime,
        windows_survived=lifetime // 100,
        tuning_success_rate=0.75,
        final_accuracy=0.875,
        failed=failed,
    )


def _report(baseline_lifetime=1000):
    report = SurvivabilityReport(workload="blobs", scenario_key="st+at")
    report.add(_record("drift@0.02/raw", kind="drift", rate=0.02, lifetime=800))
    if baseline_lifetime is not None:
        report.add(
            _record("baseline", kind="none", rate=0.0, lifetime=baseline_lifetime,
                    failed=False)
        )
    report.add(_record("stuck_at@0.02/raw", rate=0.02, lifetime=250))
    report.add(_record("stuck_at@0.01/deg", rate=0.01, degradation=True, lifetime=900))
    report.add(_record("stuck_at@0.01/raw", rate=0.01, lifetime=500))
    return report


class TestLookups:
    def test_baseline_is_the_fault_free_record(self):
        assert _report().baseline().point == "baseline"
        assert _report(baseline_lifetime=None).baseline() is None

    def test_fault_kinds_in_first_seen_order_without_none(self):
        assert _report().fault_kinds() == ["drift", "stuck_at"]

    def test_degradation_curve_sorted_by_rate(self):
        curve = _report().lifetime_degradation("stuck_at", degradation=False)
        assert curve == [(0.01, 0.5), (0.02, 0.25)]

    def test_degradation_filter(self):
        report = _report()
        assert report.lifetime_degradation("stuck_at", degradation=True) == [(0.01, 0.9)]
        assert len(report.lifetime_degradation("stuck_at")) == 3
        assert report.lifetime_degradation("pulse_miss") == []

    @pytest.mark.parametrize("baseline_lifetime", [None, 0], ids=["absent", "zero"])
    def test_ratio_is_inf_without_a_usable_baseline(self, baseline_lifetime):
        curve = _report(baseline_lifetime).lifetime_degradation("drift")
        assert len(curve) == 1 and math.isinf(curve[0][1])


class TestSerialization:
    def test_record_round_trip(self):
        record = _record("stuck_at@0.01/raw")
        assert SurvivabilityRecord.from_dict(record.to_dict()) == record

    def test_record_dict_has_exactly_the_record_fields(self):
        assert sorted(_record("p").to_dict()) == [
            "degradation",
            "failed",
            "fault_kind",
            "fault_rate",
            "final_accuracy",
            "lifetime_applications",
            "point",
            "tuning_success_rate",
            "windows_survived",
        ]

    def test_report_round_trip_through_json(self):
        report = _report()
        report.perf = {"baseline": {"elapsed_s": 0.5, "counters": {"lifetime.windows": 3}}}
        clone = SurvivabilityReport.from_dict(
            json.loads(json.dumps(report.to_dict(include_perf=True)))
        )
        assert clone == report

    def test_default_dict_has_no_perf_and_loads_without_it(self):
        report = _report()
        report.perf = {"baseline": {"elapsed_s": 0.5}}
        data = report.to_dict()
        assert sorted(data) == ["records", "scenario_key", "workload"]
        clone = SurvivabilityReport.from_dict(data)
        assert clone.perf == {} and clone.records == report.records


class TestRenderText:
    def test_empty_report_renders_header_and_columns(self):
        text = SurvivabilityReport(workload="blobs", scenario_key="st+at").render_text()
        lines = text.splitlines()
        assert lines[0] == "Survivability — blobs / ST+AT"
        assert lines[3].split() == [
            "point", "kind", "rate", "degr", "lifetime", "wins", "tune", "ok", "acc",
        ]
        assert "baseline" not in text and "perf:" not in text

    def test_one_row_per_record(self):
        text = _report().render_text()
        assert "stuck_at@0.01/deg  stuck_at  0.01  on" in text
        row = next(ln for ln in text.splitlines() if ln.startswith("stuck_at@0.02/raw"))
        assert row.split()[-4:] == ["250", "2", "75%", "0.875"]

    def test_summary_names_the_worst_ratio_per_kind_and_flag(self):
        text = _report().render_text()
        assert "fault-free baseline: lifetime=1000 applications" in text
        assert "stuck_at (degradation off): worst lifetime ratio 0.25x over 2 rate(s)" in text
        assert "stuck_at (degradation on): worst lifetime ratio 0.90x over 1 rate(s)" in text
        assert "drift (degradation on)" not in text

    def test_no_summary_without_a_baseline(self):
        text = _report(baseline_lifetime=None).render_text()
        assert "worst lifetime ratio" not in text

    def test_perf_section_lists_counters_per_point(self):
        report = _report()
        report.perf = {
            "baseline": {
                "elapsed_s": 1.25,
                "counters": {
                    "lifetime.windows": 4,
                    "tuning.iterations": 30,
                    "network.hardware_reads": 120,
                },
            }
        }
        assert report.render_text().endswith(
            "perf:\n  baseline: windows=4, tuning iterations=30, "
            "hardware reads=120, elapsed=1.25s"
        )
