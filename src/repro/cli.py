"""Command-line interface.

Exposes the main reproduction flows without writing Python::

    python -m repro list-presets
    python -m repro run --preset lenet-glyphs --scenario st+at --fast
    python -m repro run --fast --checkpoint-every 5 --checkpoint-dir ckpts
    python -m repro run --resume ckpts/st+at-r0-w00005.ckpt.json
    python -m repro compare --preset lenet-glyphs --fast --out results.json
    python -m repro campaign --fast --journal campaign.jsonl
    python -m repro checkpoints ls --dir ckpts
    python -m repro train --preset lenet-glyphs --skewed --weights model.npz

All subcommands are deterministic for a given ``--seed``; a killed
``run`` resumed from its latest checkpoint is bit-identical to an
uninterrupted one (DESIGN.md §10).  ``run``, ``compare`` and
``campaign`` take ``--journal PATH``: results already in the journal are
replayed, completed ones are appended to it.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from repro.analysis import ascii_series, comparison_report, render_table
from repro.core import AgingAwareFramework, RunJournal
from repro.core.checkpoint import (
    CheckpointManager,
    inspect_checkpoint,
    split_snapshot_name,
)
from repro.core.lifetime import LifetimeSimulator
from repro.core.presets import PRESETS
from repro.core.profiling import PROFILER
from repro.core.scenarios import SCENARIOS
from repro.exceptions import ConfigurationError
from repro.io import load_comparison, save_comparison, save_result, save_weights


def _emit_profile(args) -> None:
    """Dump the perf-counter registry per ``--profile`` (see DESIGN.md §9).

    ``--profile`` alone prints the text table to stdout; ``--profile
    PATH`` writes the JSON snapshot to ``PATH``.
    """
    dest = getattr(args, "profile", None)
    if dest is None:
        return
    if dest == "-":
        print()
        print(PROFILER.render_text())
    else:
        PROFILER.export_json(dest)
        print(f"perf counters written to {dest}")


def _build_framework(args) -> AgingAwareFramework:
    preset = PRESETS[args.preset](fast=args.fast)
    dataset = preset.make_dataset()
    seed = args.seed if args.seed is not None else preset.seed
    return AgingAwareFramework(
        preset.build_network, dataset, preset.framework_config, seed=seed
    )


def _open_journal(args) -> Optional[RunJournal]:
    """The ``--journal`` result store, or ``None`` when not given."""
    return RunJournal(args.journal) if args.journal else None


def _report_journal(journal: Optional[RunJournal], tasks: int) -> None:
    """Say how many of ``tasks`` the journal replayed and how many ran."""
    if journal is not None:
        print(
            f"journal {journal.path}: {journal.skipped} replayed, "
            f"{tasks - journal.skipped} executed"
        )


def cmd_list_presets(_args) -> int:
    rows = []
    for name, factory in PRESETS.items():
        preset = factory(fast=False)
        dataset = preset.make_dataset()
        rows.append([name, dataset.describe()])
    print(render_table(["preset", "workload"], rows))
    return 0


def cmd_train(args) -> int:
    framework = _build_framework(args)
    model = framework.trained_model(args.skewed)
    style = "skewed" if args.skewed else "baseline"
    print(f"{style} training done; test accuracy = "
          f"{framework.software_accuracy(args.skewed):.4f}")
    if args.weights:
        save_weights(model, args.weights)
        print(f"weights written to {args.weights}")
    return 0


def cmd_run(args) -> int:
    start = time.time()
    if args.resume:
        if args.journal:
            # A snapshot carries the simulator, not the framework inputs
            # a journal key is a hash of, so its result cannot be stored.
            raise ConfigurationError("--resume cannot be combined with --journal")
        # The snapshot carries the whole mid-run simulator (model,
        # configs, RNG streams); --preset/--scenario are not consulted.
        simulator = LifetimeSimulator.resume(args.resume)
        result = simulator.run(
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
            run_id=split_snapshot_name(args.resume)[0],
        )
        scenario_label = result.scenario_key
    else:
        framework = _build_framework(args)
        task = framework.scenario_task(
            args.scenario,
            args.scenario,
            args.repeat,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
        )
        journal = _open_journal(args)
        (outcome,) = framework.run_tasks([task], journal=journal)
        result = outcome.value
        scenario_label = args.scenario
        _report_journal(journal, 1)
    elapsed = time.time() - start
    print(
        f"{scenario_label.upper()}: lifetime={result.lifetime_applications} applications "
        f"({len(result.windows)} windows, "
        f"{'failed' if result.failed else 'horizon reached'}) in {elapsed:.0f}s"
    )
    trace = [float(v) for v in result.iteration_trace()]
    if trace:
        print(ascii_series(trace, height=6, label="tuning iterations per window"))
    if args.out:
        save_result(result, args.out)
        print(f"result written to {args.out}")
    _emit_profile(args)
    return 0


def cmd_compare(args) -> int:
    framework = _build_framework(args)
    journal = _open_journal(args)
    comparison = framework.compare(
        repeats=args.repeats, workers=args.workers, journal=journal
    )
    base = comparison.results[comparison.baseline_key].lifetime_applications or 1
    rows = [
        [
            key.upper(),
            f"{r.software_accuracy:.3f}",
            r.lifetime_applications,
            f"{r.lifetime_applications / base:.1f}x",
        ]
        for key, r in comparison.results.items()
    ]
    print(
        render_table(
            ["scenario", "software acc", "lifetime (apps)", "vs T+T"],
            rows,
            title=f"Lifetime comparison — {comparison.workload}",
        )
    )
    _report_journal(journal, len(comparison.results) * args.repeats)
    if args.out:
        save_comparison(comparison, args.out)
        print(f"comparison written to {args.out}")
    _emit_profile(args)
    return 0


def cmd_campaign(args) -> int:
    from repro.robustness import FaultCampaign, build_grid

    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    try:
        rates = tuple(float(r) for r in args.rates.split(",") if r.strip())
    except ValueError:
        raise ConfigurationError(
            f"could not parse --rates {args.rates!r} as comma-separated floats"
        ) from None
    points = build_grid(
        kinds=kinds,
        rates=rates,
        window=args.window,
        with_degradation=not args.no_degradation,
    )
    journal = _open_journal(args)
    framework = _build_framework(args)
    campaign = FaultCampaign(
        framework,
        scenario=args.scenario,
        repeat=args.repeat,
        workers=args.workers,
        journal=journal,
    )
    start = time.time()
    report = campaign.run(points)
    elapsed = time.time() - start
    print(report.render_text())
    print(f"\n{len(points)} grid points in {elapsed:.0f}s")
    _report_journal(journal, len(points))
    if args.out:
        import json

        with open(args.out, "w") as handle:
            json.dump(report.to_dict(include_perf=True), handle, indent=2)
        print(f"report written to {args.out}")
    _emit_profile(args)
    return 0


def cmd_checkpoints(args) -> int:
    import json

    if args.ckpt_command == "ls":
        manager = CheckpointManager(args.dir)
        entries = manager.entries()
        if not entries:
            print(f"no checkpoints under {args.dir}")
            return 0
        rows = [
            [
                e.run_id,
                e.window,
                f"{e.bytes / 1024:.1f}",
                time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(e.modified_unix)),
                str(e.path),
            ]
            for e in entries
        ]
        print(
            render_table(
                ["run", "window", "KiB", "modified", "path"],
                rows,
                title=f"checkpoints in {args.dir}",
            )
        )
        latest = manager.latest(run_id=args.run_id)
        if latest is not None:
            print(f"\nlatest{f' for {args.run_id}' if args.run_id else ''}: {latest}")
        return 0
    if args.ckpt_command == "inspect":
        print(json.dumps(inspect_checkpoint(args.path), indent=2))
        return 0
    if args.ckpt_command == "gc":
        removed = CheckpointManager(args.dir).gc(keep=args.keep, run_id=args.run_id)
        for path in removed:
            print(f"removed {path}")
        print(f"{len(removed)} snapshot(s) removed (keep={args.keep})")
        return 0
    raise AssertionError(f"unhandled checkpoints subcommand {args.ckpt_command!r}")


def cmd_report(args) -> int:
    comparison = load_comparison(args.comparison)
    text = comparison_report(comparison)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Aging-aware lifetime enhancement for memristor crossbars "
        "(DATE 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-presets", help="list available workloads").set_defaults(
        func=cmd_list_presets
    )

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--preset", default="lenet-glyphs", choices=sorted(PRESETS))
        p.add_argument("--fast", action="store_true", help="use the fast preset variant")
        p.add_argument("--seed", type=int, default=None)

    def profiling(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--profile",
            nargs="?",
            const="-",
            default=None,
            metavar="PATH",
            help="after the run, print the kernel perf counters (or write "
            "them to PATH as JSON)",
        )

    def journaling(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--journal",
            default=None,
            metavar="PATH",
            help="JSONL result journal: runs already recorded there are "
            "replayed, completed ones are appended durably (a relaunch of "
            "a killed run re-executes only what never completed)",
        )

    p_train = sub.add_parser("train", help="software-train a model")
    common(p_train)
    p_train.add_argument("--skewed", action="store_true", help="use skewed training")
    p_train.add_argument("--weights", default=None, help="write weights to .npz")
    p_train.set_defaults(func=cmd_train)

    p_run = sub.add_parser("run", help="run one lifetime scenario")
    common(p_run)
    journaling(p_run)
    profiling(p_run)
    p_run.add_argument("--scenario", default="st+at", choices=sorted(SCENARIOS))
    p_run.add_argument("--repeat", type=int, default=0, help="hardware seed index")
    p_run.add_argument("--out", default=None, help="write result JSON here")
    p_run.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="write a durable snapshot after every N completed windows "
        "(resumable with --resume; bit-identical to a plain run)",
    )
    p_run.add_argument(
        "--checkpoint-dir",
        default=".repro-checkpoints",
        help="directory for --checkpoint-every snapshots; default: %(default)s",
    )
    p_run.add_argument(
        "--resume",
        default=None,
        metavar="SNAPSHOT",
        help="continue a killed run from this .ckpt.json snapshot "
        "(--preset/--scenario are ignored: the snapshot carries them; "
        "not combinable with --journal)",
    )
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run T+T / ST+T / ST+AT")
    common(p_cmp)
    journaling(p_cmp)
    profiling(p_cmp)
    p_cmp.add_argument("--repeats", type=int, default=1)
    p_cmp.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for scenario fan-out (results are "
        "bit-identical to --workers 1)",
    )
    p_cmp.add_argument("--out", default=None, help="write comparison JSON here")
    p_cmp.set_defaults(func=cmd_compare)

    p_camp = sub.add_parser(
        "campaign",
        help="fault-injection campaign: sweep a fault grid over one scenario",
    )
    common(p_camp)
    journaling(p_camp)
    profiling(p_camp)
    p_camp.add_argument("--scenario", default="st+at", choices=sorted(SCENARIOS))
    p_camp.add_argument(
        "--kinds",
        default="stuck_at",
        help="comma-separated fault kinds (stuck_at, drift, read_noise, "
        "pulse_miss); default: %(default)s",
    )
    p_camp.add_argument(
        "--rates",
        default="0.005,0.01,0.02",
        help="comma-separated fault severities; default: %(default)s",
    )
    p_camp.add_argument(
        "--window",
        type=int,
        default=1,
        help="application window at which faults strike; default: %(default)s",
    )
    p_camp.add_argument("--repeat", type=int, default=0, help="hardware seed index")
    p_camp.add_argument(
        "--no-degradation",
        action="store_true",
        help="skip the dead-gradient-masking (/deg) half of the grid",
    )
    p_camp.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for grid fan-out (results are bit-identical "
        "to --workers 1)",
    )
    p_camp.add_argument("--out", default=None, help="write SurvivabilityReport JSON here")
    p_camp.set_defaults(func=cmd_campaign)

    p_ckpt = sub.add_parser(
        "checkpoints", help="list, inspect and garbage-collect run snapshots"
    )
    ckpt_sub = p_ckpt.add_subparsers(dest="ckpt_command", required=True)
    p_ls = ckpt_sub.add_parser("ls", help="list snapshots in a directory")
    p_ls.add_argument("--dir", default=".repro-checkpoints")
    p_ls.add_argument("--run-id", default=None, help="restrict `latest` to one run")
    p_ls.set_defaults(func=cmd_checkpoints)
    p_ins = ckpt_sub.add_parser(
        "inspect", help="verified summary of one snapshot (no unpickling)"
    )
    p_ins.add_argument("path", help="a .ckpt.json snapshot file")
    p_ins.set_defaults(func=cmd_checkpoints)
    p_gc = ckpt_sub.add_parser(
        "gc", help="delete all but the newest snapshots per run"
    )
    p_gc.add_argument("--dir", default=".repro-checkpoints")
    p_gc.add_argument(
        "--keep", type=int, default=3, help="snapshots to keep per run; default: %(default)s"
    )
    p_gc.add_argument("--run-id", default=None, help="only collect this run's snapshots")
    p_gc.set_defaults(func=cmd_checkpoints)

    p_rep = sub.add_parser("report", help="render a saved comparison as Markdown")
    p_rep.add_argument("comparison", help="comparison JSON from `compare --out`")
    p_rep.add_argument("--out", default=None, help="write Markdown here (default: stdout)")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
