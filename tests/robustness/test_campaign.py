"""Campaign runner, survivability report, and the CLI entry point."""

import json

import pytest

from repro.core import RunJournal
from repro.exceptions import ConfigurationError
from repro.robustness import (
    CampaignPoint,
    FaultCampaign,
    SurvivabilityReport,
    build_grid,
)
from repro.robustness.campaign import record_from_result
from tests.robustness.conftest import make_mini_framework


def _direct_records(framework, scenario, points):
    """Serial reference: one plain ``run_scenario`` call per grid point."""
    return [
        record_from_result(
            p,
            framework.run_scenario(
                scenario, fault_schedule=p.schedule, degradation=p.degradation
            ),
        ).to_dict()
        for p in points
    ]


class TestBuildGrid:
    def test_default_grid_shape(self):
        points = build_grid(kinds=("stuck_at",), rates=(0.005, 0.01))
        # baseline + 2 rates x {raw, deg}
        assert len(points) == 5
        assert points[0].name == "baseline"
        assert points[0].fault_kind == "none"
        names = {p.name for p in points}
        assert "stuck_at@0.005/raw" in names
        assert "stuck_at@0.01/deg" in names

    def test_no_degradation_halves_grid(self):
        points = build_grid(
            kinds=("stuck_at",), rates=(0.01,), with_degradation=False
        )
        assert [p.name for p in points] == ["baseline", "stuck_at@0.01/raw"]
        assert not any(p.degradation for p in points)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            build_grid(kinds=(), rates=(0.01,))
        with pytest.raises(ConfigurationError):
            build_grid(kinds=("stuck_at",), rates=(0.0,))


class TestGridValidation:
    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            pytest.param(dict(kinds=(), rates=(0.01,)), "at least one kind",
                         id="no-kinds"),
            pytest.param(dict(kinds=("drift",), rates=()), "at least one kind",
                         id="no-rates"),
            pytest.param(dict(kinds=("bogus",), rates=(0.01,)), "'bogus'",
                         id="unknown-kind"),
            pytest.param(dict(kinds=("drift",), rates=(-0.01,)), "> 0",
                         id="negative-rate"),
            pytest.param(dict(kinds=("stuck_at",), rates=(0.01,), window=-1),
                         "window", id="negative-window"),
            pytest.param(dict(kinds=("pulse_miss",), rates=(1.0,)), "rate must be < 1",
                         id="certain-pulse-miss"),
        ],
    )
    def test_rejected(self, kwargs, fragment):
        with pytest.raises(ConfigurationError, match=fragment):
            build_grid(**kwargs)

    @pytest.mark.parametrize("kind", ["stuck_at", "drift", "read_noise", "pulse_miss"])
    def test_every_kind_strikes_at_the_window_with_its_rate(self, kind):
        baseline, *points = build_grid(kinds=(kind,), rates=(0.03,), window=2)
        assert baseline.schedule is None
        assert [p.name for p in points] == [f"{kind}@0.03/raw", f"{kind}@0.03/deg"]
        for point in points:
            (event,) = point.schedule.events
            assert event.kind == kind and event.window == 2
            assert event.rate == 0.03

    def test_names_unique_across_kinds_and_rates(self):
        points = build_grid(kinds=("stuck_at", "drift"), rates=(0.01, 0.02))
        names = [p.name for p in points]
        assert len(names) == len(set(names)) == 1 + 2 * 2 * 2


def _point_key(framework, point, scenario="st+at", repeat=0):
    """Journal key a campaign stores ``point`` under."""
    return framework.scenario_task(
        point.name, scenario, repeat, point.schedule, point.degradation
    ).journal_key


class TestPointKey:
    """Grid points are identified by content, as the journal requires."""

    def test_every_point_of_a_grid_has_its_own_key(self, mini_framework):
        points = build_grid(kinds=("stuck_at", "drift"), rates=(0.01, 0.02))
        keys = [_point_key(mini_framework, p) for p in points]
        assert len(set(keys)) == len(keys)

    def test_key_is_stable_across_frameworks(self, mini_framework):
        point = build_grid(kinds=("drift",), rates=(0.01,))[1]
        again = make_mini_framework()  # same seed and config
        assert _point_key(again, point) == _point_key(mini_framework, point)

    def test_key_ignores_the_point_name(self, mini_framework):
        point = build_grid(kinds=("drift",), rates=(0.01,))[1]
        renamed = CampaignPoint(
            name="renamed",
            fault_kind=point.fault_kind,
            fault_rate=point.fault_rate,
            schedule=point.schedule,
            degradation=point.degradation,
        )
        assert _point_key(mini_framework, renamed) == _point_key(mini_framework, point)

    @pytest.mark.parametrize(
        "other", [dict(scenario="st+t"), dict(repeat=1)], ids=["scenario", "repeat"]
    )
    def test_key_depends_on_the_run(self, mini_framework, other):
        point = build_grid(kinds=("drift",), rates=(0.01,))[1]
        base = _point_key(mini_framework, point)
        assert _point_key(mini_framework, point, **other) != base

    def test_baseline_key_is_the_plain_scenario_key(self, mini_framework, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        baseline = build_grid()[0]
        FaultCampaign(mini_framework, scenario="st+at", repeat=2, journal=journal).run(
            [baseline]
        )
        plain = mini_framework.scenario_task("st+at", "st+at", 2).journal_key
        assert list(journal.entries) == [plain]

    @pytest.mark.parametrize(
        "kwargs", [dict(workers=-1), dict(repeat=-1)], ids=["workers", "repeat"]
    )
    def test_negative_settings_rejected(self, mini_framework, kwargs):
        with pytest.raises(ConfigurationError):
            FaultCampaign(mini_framework, **kwargs)

    def test_empty_grid_rejected(self, mini_framework):
        with pytest.raises(ConfigurationError, match="at least one point"):
            FaultCampaign(mini_framework).run([])


class TestFaultCampaign:
    GRID = dict(kinds=("stuck_at",), rates=(0.02,), window=1)

    def test_duplicate_names_rejected(self, mini_framework):
        campaign = FaultCampaign(mini_framework, scenario="st+at")
        point = build_grid(**self.GRID)[0]
        with pytest.raises(ConfigurationError):
            campaign.run([point, point])

    def test_serial_parallel_and_journal_agree(self, mini_framework, tmp_path):
        points = build_grid(**self.GRID)
        direct = _direct_records(mini_framework, "st+at", points)
        serial = FaultCampaign(mini_framework, scenario="st+at").run(points)
        assert [r.to_dict() for r in serial.records] == direct

        path = tmp_path / "run.jsonl"
        par = FaultCampaign(
            mini_framework, scenario="st+at", workers=2, journal=RunJournal(path)
        ).run(points)
        assert [r.to_dict() for r in par.records] == direct

        # Second run must be pure replays and still identical.
        journal = RunJournal(path)
        assert len(journal) == len(points)
        warm = FaultCampaign(
            mini_framework, scenario="st+at", workers=2, journal=journal
        ).run(points)
        assert journal.skipped == len(points)
        assert [r.to_dict() for r in warm.records] == direct
        assert warm.perf == {}  # nothing executed

    def test_baseline_point_shares_plain_scenario_entry(
        self, mini_framework, tmp_path
    ):
        """The fault-free grid point and a plain run use the same key."""
        journal = RunJournal(tmp_path / "run.jsonl")
        task = mini_framework.scenario_task("st+at", "st+at")
        mini_framework.run_tasks([task], journal=journal)
        assert len(journal) == 1
        points = build_grid(
            kinds=("stuck_at",), rates=(0.02,), window=1, with_degradation=False
        )
        FaultCampaign(mini_framework, scenario="st+at", journal=journal).run(points)
        # baseline replayed the existing entry; only the fault point was new
        assert journal.skipped == 1
        assert len(journal) == 2

    def test_report_contents_and_roundtrip(self, mini_framework):
        points = build_grid(**self.GRID)
        report = FaultCampaign(mini_framework, scenario="st+at").run(points)
        assert report.scenario_key == "st+at"
        assert len(report.records) == len(points)

        base = report.baseline()
        assert base is not None and base.fault_kind == "none"
        assert report.fault_kinds() == ["stuck_at"]
        ratios = report.lifetime_degradation("stuck_at", degradation=False)
        assert len(ratios) == 1
        assert all(ratio <= 1.0 + 1e-9 for _rate, ratio in ratios)

        clone = SurvivabilityReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        )
        assert [r.to_dict() for r in clone.records] == [
            r.to_dict() for r in report.records
        ]
        text = report.render_text()
        assert "baseline" in text and "stuck_at" in text

    def test_serial_run_captures_perf_per_point(self, mini_framework):
        """Serial campaigns attribute windows, tuning iterations and
        hardware reads to each grid point."""
        points = build_grid(**self.GRID)
        report = FaultCampaign(mini_framework, scenario="st+at").run(points)
        assert set(report.perf) == {p.name for p in points}
        for delta in report.perf.values():
            assert delta["elapsed_s"] > 0
            assert delta["counters"].get("lifetime.windows", 0) > 0
            assert delta["counters"].get("network.hardware_reads", 0) > 0
        text = report.render_text()
        assert "\nperf:\n" in text
        assert "windows=" in text and "hardware reads=" in text

    def test_parallel_run_captures_perf_per_point(self, mini_framework, tmp_path):
        """Counters come back from the pool workers; a journal relaunch
        replays every point, so it carries no perf and trains nothing."""
        points = build_grid(**self.GRID)
        path = tmp_path / "journal.jsonl"
        report = FaultCampaign(
            mini_framework, scenario="st+at", workers=2, journal=RunJournal(path)
        ).run(points)
        assert set(report.perf) == {p.name for p in points}
        for delta in report.perf.values():
            assert delta["elapsed_s"] > 0
            assert delta["counters"].get("lifetime.windows", 0) > 0

        journal = RunJournal(path)
        fresh = make_mini_framework()  # same seed and config: same point keys
        again = FaultCampaign(
            fresh, scenario="st+at", workers=2, journal=journal
        ).run(points)
        assert journal.skipped == len(points)
        assert again.perf == {}
        assert fresh._trained == {}
        assert again.to_dict() == report.to_dict()

    def test_perf_excluded_from_default_serialization(self, mini_framework):
        """Perf is wall-clock-noisy and skips replayed points, so the
        default to_dict must not carry it — keeping serialized reports
        identical across execution modes and cache states."""
        points = build_grid(**self.GRID)
        report = FaultCampaign(mini_framework, scenario="st+at").run(points)
        assert "perf" not in report.to_dict()
        with_perf = report.to_dict(include_perf=True)
        assert set(with_perf["perf"]) == {p.name for p in points}
        clone = SurvivabilityReport.from_dict(
            json.loads(json.dumps(with_perf))
        )
        assert clone.perf == with_perf["perf"]


class TestCampaignCli:
    def test_help(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--kinds" in out and "--rates" in out

    def test_tiny_campaign_writes_report(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        from repro.core.presets import PRESETS, ExperimentPreset

        # Register a laptop-instant preset so the CLI path runs end to
        # end without the real (minutes-long) presets.
        template = make_mini_framework()

        def tiny_blobs(fast: bool = False) -> ExperimentPreset:
            return ExperimentPreset(
                name="tiny-blobs",
                make_dataset=lambda: template.dataset,
                build_network=template.network_builder,
                framework_config=template.config,
                seed=7,
            )

        monkeypatch.setitem(PRESETS, "tiny-blobs", tiny_blobs)
        out_path = tmp_path / "report.json"
        rc = main(
            [
                "campaign",
                "--preset",
                "tiny-blobs",
                "--scenario",
                "st+at",
                "--kinds",
                "stuck_at",
                "--rates",
                "0.02",
                "--no-degradation",
                "--out",
                str(out_path),
            ]
        )
        assert rc == 0
        report = SurvivabilityReport.from_dict(json.loads(out_path.read_text()))
        assert {r.fault_kind for r in report.records} == {"none", "stuck_at"}
        assert "Survivability" in capsys.readouterr().out

    def test_serial_parallel_and_relaunched_reports_agree(self, tmp_path, capsys):
        from repro.cli import main

        grid = ["campaign", "--preset", "blobs-mini", "--fast", "--kinds",
                "stuck_at", "--rates", "0.01"]
        journal = ["--workers", "2", "--journal", str(tmp_path / "j.jsonl")]
        runs = {
            "serial": grid,
            "parallel": grid + journal,
            "relaunched": grid + journal,
        }
        reports, stdout = {}, {}
        for name, argv in runs.items():
            out_path = tmp_path / f"{name}.json"
            assert main(argv + ["--out", str(out_path)]) == 0
            reports[name] = json.loads(out_path.read_text())
            stdout[name] = capsys.readouterr().out
        assert "0 replayed, 3 executed" in stdout["parallel"]
        assert "3 replayed, 0 executed" in stdout["relaunched"]
        perf = {name: report.pop("perf") for name, report in reports.items()}
        assert perf["relaunched"] == {} and perf["parallel"]
        assert reports["parallel"] == reports["serial"]
        assert reports["relaunched"] == reports["serial"]
