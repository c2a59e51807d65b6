"""Unit tests for the command-line interface.

The heavy subcommands run against the fast presets; assertions check
wiring (arguments reach the framework, files land on disk) rather than
simulation quality, which the benchmarks own.
"""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.preset == "lenet-glyphs"
        assert args.scenario == "st+at"
        assert not args.fast

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--preset", "nope"])

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scenario", "nope"])

    def test_checkpoint_flag_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.checkpoint_every is None
        assert args.checkpoint_dir == ".repro-checkpoints"
        assert args.resume is None
        args = build_parser().parse_args(
            ["run", "--checkpoint-every", "5", "--checkpoint-dir", "c"]
        )
        assert args.checkpoint_every == 5 and args.checkpoint_dir == "c"

    def test_campaign_journal_flags(self):
        args = build_parser().parse_args(["campaign"])
        assert args.journal is None and not args.resume
        args = build_parser().parse_args(
            ["campaign", "--journal", "j.jsonl", "--resume"]
        )
        assert args.journal == "j.jsonl" and args.resume

    def test_checkpoints_subcommands_parse(self):
        ls = build_parser().parse_args(["checkpoints", "ls", "--dir", "d"])
        assert ls.ckpt_command == "ls" and ls.dir == "d"
        gc = build_parser().parse_args(["checkpoints", "gc", "--keep", "2"])
        assert gc.ckpt_command == "gc" and gc.keep == 2
        ins = build_parser().parse_args(["checkpoints", "inspect", "x.ckpt.json"])
        assert ins.ckpt_command == "inspect" and ins.path == "x.ckpt.json"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["checkpoints"])

    def test_profile_flag_variants(self):
        assert build_parser().parse_args(["run"]).profile is None
        assert build_parser().parse_args(["run", "--profile"]).profile == "-"
        args = build_parser().parse_args(["run", "--profile", "perf.json"])
        assert args.profile == "perf.json"
        assert build_parser().parse_args(["compare", "--profile"]).profile == "-"
        assert build_parser().parse_args(["campaign", "--profile"]).profile == "-"


class TestCommands:
    def test_list_presets(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out
        assert "lenet-glyphs" in out and "vggnet-shapes" in out

    def test_train_writes_weights(self, tmp_path, capsys):
        weights = tmp_path / "model.npz"
        code = main(
            ["train", "--preset", "lenet-glyphs", "--fast", "--weights", str(weights)]
        )
        assert code == 0
        assert weights.exists()
        assert "test accuracy" in capsys.readouterr().out

    def test_report_from_saved_comparison(self, tmp_path, capsys):
        from repro.core.results import LifetimeResult, ScenarioComparison
        from repro.io import save_comparison

        cmp_path = tmp_path / "cmp.json"
        comparison = ScenarioComparison(workload="glyphs")
        comparison.add(
            LifetimeResult(scenario_key="t+t", lifetime_applications=1000, failed=True)
        )
        save_comparison(comparison, cmp_path)
        out_path = tmp_path / "report.md"
        assert main(["report", str(cmp_path), "--out", str(out_path)]) == 0
        assert out_path.read_text().startswith("# Lifetime comparison")

    def test_compare_writes_comparison(self, tmp_path, capsys):
        from repro.io import load_comparison

        out = tmp_path / "cmp.json"
        argv = ["compare", "--preset", "blobs-mini", "--fast", "--no-cache"]
        assert main(argv + ["--out", str(out)]) == 0
        printed = capsys.readouterr().out
        comparison = load_comparison(out)
        assert list(comparison.results) == ["t+t", "st+t", "st+at"]
        for key, result in comparison.results.items():
            assert key.upper() in printed
            assert str(result.lifetime_applications) in printed
        assert "vs T+T" in printed and "1.0x" in printed
        assert f"comparison written to {out}" in printed

    def test_python_dash_m_runs_the_cli(self):
        import os
        import pathlib
        import subprocess
        import sys

        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-m", "repro", "list-presets"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "lenet-glyphs" in done.stdout

    def test_report_to_stdout(self, tmp_path, capsys):
        from repro.core.results import LifetimeResult, ScenarioComparison
        from repro.io import save_comparison

        cmp_path = tmp_path / "cmp.json"
        comparison = ScenarioComparison(workload="glyphs")
        comparison.add(
            LifetimeResult(scenario_key="t+t", lifetime_applications=1000, failed=True)
        )
        save_comparison(comparison, cmp_path)
        assert main(["report", str(cmp_path)]) == 0
        assert "# Lifetime comparison" in capsys.readouterr().out

    def test_run_writes_result(self, tmp_path, capsys):
        out_file = tmp_path / "result.json"
        code = main(
            [
                "run",
                "--preset",
                "lenet-glyphs",
                "--fast",
                "--no-cache",
                "--scenario",
                "t+t",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["scenario_key"] == "t+t"
        assert "lifetime" in capsys.readouterr().out

    def test_run_profile_to_stdout_and_file(self, tmp_path, capsys):
        argv = [
            "run",
            "--preset",
            "lenet-glyphs",
            "--fast",
            "--no-cache",
            "--scenario",
            "t+t",
            "--profile",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "perf counters" in out
        assert "network.hardware_reads" in out

        perf_file = tmp_path / "perf.json"
        assert main(argv + [str(perf_file)]) == 0
        snapshot = json.loads(perf_file.read_text())
        assert snapshot["counters"]["lifetime.runs"] >= 1
        assert "timers" in snapshot

    def test_run_populates_and_reuses_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = [
            "run",
            "--preset",
            "lenet-glyphs",
            "--fast",
            "--scenario",
            "t+t",
            "--cache-dir",
            str(cache_dir),
            "--out",
            str(tmp_path / "first.json"),
        ]
        assert main(argv) == 0
        entries = list(cache_dir.glob("*.json"))
        assert len(entries) == 1
        # Second run must be served from the cache: same result JSON,
        # no new cache entries.
        argv[-1] = str(tmp_path / "second.json")
        assert main(argv) == 0
        assert list(cache_dir.glob("*.json")) == entries
        first = json.loads((tmp_path / "first.json").read_text())
        second = json.loads((tmp_path / "second.json").read_text())
        assert first == second

    def test_campaign_resume_requires_journal(self, capsys):
        assert main(["campaign", "--resume"]) == 2
        assert "--journal" in capsys.readouterr().out

    def test_bad_value_is_one_line_error_not_traceback(self, capsys):
        argv = ["campaign", "--preset", "blobs-mini", "--fast", "--no-cache"]
        assert main(argv + ["--kinds", "bogus"]) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "'bogus'" in lines[0]
        assert "Traceback" not in captured.out + captured.err

    def test_checkpoints_ls_empty_dir(self, tmp_path, capsys):
        assert main(["checkpoints", "ls", "--dir", str(tmp_path)]) == 0
        assert "no checkpoints" in capsys.readouterr().out

    def test_compare_accepts_workers(self, tmp_path, capsys):
        args = build_parser().parse_args(
            ["compare", "--workers", "4", "--no-cache"]
        )
        assert args.workers == 4
        assert args.no_cache


_MINI = ["--preset", "blobs-mini", "--fast", "--no-cache"]


class TestBadValues:
    """Every rejected value ends in one ``error:`` line and exit code 2.

    Each case is validated before any training, so the table stays fast.
    """

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            pytest.param(["campaign", *_MINI, "--kinds", "stuck_at,bogus"],
                         "'bogus'", id="campaign-kinds-one-unknown"),
            pytest.param(["campaign", *_MINI, "--kinds", ","],
                         "at least one kind", id="campaign-kinds-empty"),
            pytest.param(["campaign", *_MINI, "--rates", ","],
                         "at least one kind and one rate", id="campaign-rates-empty"),
            pytest.param(["campaign", *_MINI, "--rates", "abc"],
                         "'abc'", id="campaign-rates-not-a-number"),
            pytest.param(["campaign", *_MINI, "--rates", "0.01,x"],
                         "'0.01,x'", id="campaign-rates-one-not-a-number"),
            pytest.param(["campaign", *_MINI, "--rates", "0"],
                         "> 0", id="campaign-rates-zero"),
            pytest.param(["campaign", *_MINI, "--rates=-0.01"],
                         "> 0", id="campaign-rates-negative"),
            pytest.param(["campaign", *_MINI, "--window", "-1"],
                         "window", id="campaign-window-negative"),
            pytest.param(["campaign", *_MINI, "--workers", "-1"],
                         "workers", id="campaign-workers-negative"),
            pytest.param(["campaign", *_MINI, "--repeat", "-1"],
                         "repeat", id="campaign-repeat-negative"),
            pytest.param(["run", *_MINI, "--repeat", "-1"],
                         "repeat", id="run-repeat-negative"),
            pytest.param(["compare", *_MINI, "--repeats", "0"],
                         "repeats", id="compare-repeats-zero"),
            pytest.param(["compare", *_MINI, "--workers", "-1"],
                         "workers", id="compare-workers-negative"),
        ],
    )
    def test_one_line_error_and_exit_2(self, argv, fragment, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("error: ") and fragment in lines[0]
        assert "Traceback" not in captured.out + captured.err

    def test_gc_negative_keep(self, tmp_path, capsys):
        argv = ["checkpoints", "gc", "--dir", str(tmp_path), "--keep", "-1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.strip().splitlines() == ["error: keep must be >= 0, got -1"]

    def test_rejected_campaign_leaves_journal_untouched(self, tmp_path, capsys):
        journal = tmp_path / "j.jsonl"
        argv = ["campaign", *_MINI, "--kinds", "bogus", "--journal", str(journal)]
        assert main(argv) == 2
        assert not journal.exists()
