"""Outside-in perf benchmark of the lifetime stack.

Run from the repository root (``src/`` is put on the path here)::

    python benchmarks/perf/run.py                    # every workload
    python benchmarks/perf/run.py --workload lenet-table1 --seed 3 \\
        --seconds 5 --trace 0                        # one run
    python benchmarks/perf/run.py compare OLD.json NEW.json

With ``--workload`` the script sets the workload up, times it, checks
its outputs and prints, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the ``end_to_end``
metrics of ``BENCHMARK.json`` with ``--trace 0``, its ``per_layer``
metrics from a traced pass with ``--trace 1``.

Without ``--workload`` it runs every workload :data:`REPS` times
untraced and once traced, each run in a fresh interpreter, one after
another; prints every metric with its median, quartiles and sample
count; writes ``out/results.json`` (the input format of ``compare``)
and appends one line to ``history.jsonl``.
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before numpy loads.  With the default
# of one thread per core, the campaign's 2 pool workers oversubscribe a
# 2-core host: there it ran slower than serial, and its wall time varied
# by 50 % between identical runs (README).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import datetime  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List  # noqa: E402

import compare  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
REGISTRY = ROOT / "BENCHMARK.json"
OUT = HERE / "out"
HISTORY = HERE / "history.jsonl"
DIGEST_PREFIX = "result_digest "
#: Untraced runs per workload in the suite (seeds ``--seed`` onwards).
REPS = 5


def load_registry() -> dict:
    return json.loads(REGISTRY.read_text())


def have_source() -> bool:
    """Whether the checkout holds the program; complain when it does not."""
    if (ROOT / "src" / "repro").is_dir():
        return True
    print(f"error: no package source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
    return False


def run_one(args: argparse.Namespace) -> int:
    """One workload run; the last stdout line is the JSON result."""
    if not have_source():
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    registry = load_registry()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    report = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), OUT
    )
    declared = {
        m["name"]: m for m in registry["per_layer" if args.trace else "end_to_end"]
    }
    if set(report.metrics) != set(declared):
        print(
            "error: emitted metrics differ from BENCHMARK.json: "
            f"{sorted(set(report.metrics) ^ set(declared))}",
            file=sys.stderr,
        )
        return 2

    print(f"{args.workload} seed={args.seed}: " + "; ".join(report.notes))
    for name, ok in report.checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    print(DIGEST_PREFIX + report.digest)
    for name, value in report.metrics.items():
        print(f"{name} = {value:.6g} {declared[name]['unit']}")
    failed = len(report.failed_checks)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": report.operations + len(report.checks),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": declared[name]["unit"]}
                    for name, value in report.metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


def child(name: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload in a fresh interpreter; parse what it printed."""
    proc = subprocess.run(
        [
            sys.executable,
            str(pathlib.Path(__file__).resolve()),
            "--workload",
            name,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    digests = [ln[len(DIGEST_PREFIX) :] for ln in lines if ln.startswith(DIGEST_PREFIX)]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"result": result, "digest": digests[0] if digests else None}


def suite(args: argparse.Namespace) -> int:
    """Every workload: :data:`REPS` untraced runs and one traced run."""
    registry = load_registry()
    seconds = registry["run_seconds"]
    summary: Dict[str, dict] = {}
    all_correct = True
    for name in (w["name"] for w in registry["workloads"]):
        runs = [child(name, args.seed + rep, seconds, 0) for rep in range(REPS)]
        runs.append(child(name, args.seed, seconds, 1))
        done = [r for r in runs if r["result"] is not None]
        attempted = sum(r["result"]["attempted"] for r in done)
        failed = sum(r["result"]["failed"] for r in done) + len(runs) - len(done)
        digests = sorted({r["digest"] for r in done})
        # Results must not depend on the seed or the run: one digest.
        attempted += 1
        failed += len(digests) != 1
        metrics: Dict[str, dict] = {}
        for r in done:
            for metric, m in r["result"]["metrics"].items():
                metrics.setdefault(metric, {"unit": m["unit"], "values": []})
                metrics[metric]["values"].append(m["value"])
        correct = failed == 0
        all_correct &= correct
        summary[name] = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted if attempted else 1.0,
            "digest": digests,
            "metrics": metrics,
        }
        print(_render_workload(name, summary[name]), flush=True)

    results = {
        "git_sha": _git_sha(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "reps": REPS,
        "seed": args.seed,
        "run_seconds": seconds,
        "workloads": summary,
    }
    out = OUT / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    history = {
        k: results[k] for k in ("git_sha", "timestamp", "reps", "seed", "run_seconds")
    }
    history["workloads"] = {
        name: {
            "correct": s["correct"],
            "failed_frac": s["failed_frac"],
            "digest": s["digest"],
            "medians": {
                metric: compare.quartiles(m["values"])[1]
                for metric, m in s["metrics"].items()
            },
        }
        for name, s in summary.items()
    }
    with HISTORY.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(history) + "\n")
    print(f"results: {out}")
    return 0 if all_correct else 1


def _render_workload(name: str, s: dict) -> str:
    lines = [
        f"== {name}: correct={s['correct']} failed {s['failed']}/{s['attempted']}"
        f" (failed_frac {s['failed_frac']:.3g}) result_digest {s['digest']}",
        f"   {'metric':<32} {'median':>11} {'q1':>11} {'q3':>11} {'n':>3}  unit",
    ]
    for metric, m in s["metrics"].items():
        q1, median, q3 = compare.quartiles(m["values"])
        lines.append(
            f"   {metric:<32} {median:>11.5g} {q1:>11.5g} {q3:>11.5g} "
            f"{len(m['values']):>3}  {m['unit']}"
        )
    return "\n".join(lines)


def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        return proc.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("old", type=pathlib.Path)
        parser.add_argument("new", type=pathlib.Path)
        args = parser.parse_args(argv[1:])
        return compare.main(args.old, args.new, load_registry())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return suite(args) if have_source() else 2
    if args.seconds is None:
        args.seconds = load_registry()["run_seconds"]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
