"""Measure fault-campaign throughput: serial vs parallel, cold vs warm.

Two grids over the miniature blobs workload:

**Standard grid** (baseline + 3 rates x degradation {off, on} = 7
lifetime simulations), run five ways —

* serial        (``workers=1``, no cache): the reference;
* parallel      (``workers=4``, no cache): grid fan-out over the pool;
* cache cold    (``workers=4``, empty cache): fan-out + populate;
* cache warm    (``workers=4``, same cache): pure hits;
* journal redo  (``workers=4``, same journal): crash-safe relaunch —
  every point replays from the append-only journal, zero re-executed;

**Big grid** (>= 64 points: 2 fault kinds x 16 rates x degradation
{off, on} + baseline), where per-point pool overhead used to erase the
parallel win (0.99x) — run two ways:

* serial;
* parallel: points are grouped into adaptive chunked pool submissions
  that amortize serialization/IPC;

plus a **service arm**: the same big grid submitted as a campaign job
and drained by worker processes through the shared journal/lease
scheduler (``repro serve``'s machinery), timed end to end and verified
bit-identical.  Results go to ``BENCH_campaign.json`` (grids) and
``BENCH_service.json`` (service arm) at the repository root.

Usage::

    PYTHONPATH=src python benchmarks/run_campaign_bench.py

``REPRO_BENCH_WORKERS`` overrides the worker count,
``REPRO_BENCH_RATES`` (comma-separated) the standard fault-rate sweep,
``REPRO_BENCH_BIG_RATES`` the big grid's sweep, and
``REPRO_BENCH_SKIP_BIG=1`` skips the big grid + service arms entirely.
``REPRO_BENCH_MIN_PARALLEL_SPEEDUP`` (e.g. ``1.3``) turns the big
grid's chunked-parallel speedup into a hard gate — CI sets it on
multicore runners.

Note on parallel speedup: fan-out pays off with the >= 2 physical cores
of any normal dev box / CI runner; on a single-core container the pool
only adds process overhead, and the recorded numbers will honestly say
so (``cpu_count`` is part of the output).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import sys
import tempfile
import time

from repro.core import (
    AgingAwareFramework,
    FrameworkConfig,
    LifetimeConfig,
    ResultCache,
    RunJournal,
)
from repro.data import make_blobs
from repro.device import DeviceConfig
from repro.robustness import FaultCampaign, build_grid
from repro.training import SkewedTrainingConfig, TrainConfig, build_mlp
from repro.tuning import TuningConfig

SCENARIO = "st+at"
RATES = tuple(
    float(r)
    for r in os.environ.get("REPRO_BENCH_RATES", "0.005,0.01,0.02").split(",")
    if r.strip()
)
#: 16 rates x 2 kinds x degradation {off,on} + baseline = 65 points.
BIG_RATES = tuple(
    float(r)
    for r in os.environ.get(
        "REPRO_BENCH_BIG_RATES",
        ",".join(f"{0.004 + 0.001 * i:g}" for i in range(16)),
    ).split(",")
    if r.strip()
)
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "4"))
SKIP_BIG = os.environ.get("REPRO_BENCH_SKIP_BIG", "") == "1"
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_PARALLEL_SPEEDUP", "0") or 0)


def make_framework() -> AgingAwareFramework:
    data = make_blobs(n_samples=400, n_classes=3, n_features=6, spread=0.4, seed=3)
    config = FrameworkConfig(
        device=DeviceConfig(pulses_to_collapse=30, write_noise=0.1),
        train=TrainConfig(epochs=15),
        skewed=SkewedTrainingConfig(
            beta_scale=-1.0,
            lambda1=0.05,
            lambda2=1e-3,
            pretrain=TrainConfig(epochs=15),
            skew_epochs=8,
        ),
        lifetime=LifetimeConfig(
            apps_per_window=1000,
            max_windows=30,
            tuning=TuningConfig(max_iterations=40),
        ),
        tune_samples=160,
        target_fraction=0.92,
    )
    return AgingAwareFramework(
        lambda seed: build_mlp(6, 3, hidden=(24,), seed=seed), data, config, seed=7
    )


def timed_run(points, **campaign_kwargs):
    campaign = FaultCampaign(make_framework(), scenario=SCENARIO, **campaign_kwargs)
    start = time.perf_counter()
    report = campaign.run(points)
    return report, time.perf_counter() - start


def per_minute(n_points: int, seconds: float) -> float:
    return round(60.0 * n_points / seconds, 2) if seconds else float("inf")


def standard_grid_arms(repo_root: pathlib.Path) -> dict:
    points = build_grid(kinds=("stuck_at",), rates=RATES, window=1)

    serial, t_serial = timed_run(points, workers=1)
    parallel, t_parallel = timed_run(points, workers=WORKERS)

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        cold, t_cold = timed_run(points, workers=WORKERS, cache=cache)
        warm, t_warm = timed_run(points, workers=WORKERS, cache=cache)
        cache_stats = {"hits": cache.hits, "misses": cache.misses}

    with tempfile.TemporaryDirectory() as tmp:
        journal_path = pathlib.Path(tmp) / "campaign.journal.jsonl"
        jfirst, t_jcold = timed_run(
            points, workers=WORKERS, journal=RunJournal(journal_path)
        )
        relaunch_journal = RunJournal(journal_path)
        jredo, t_jredo = timed_run(points, workers=WORKERS, journal=relaunch_journal)
        journal_stats = {
            "relaunch_skipped": relaunch_journal.skipped,
            "relaunch_reexecuted": len(points) - relaunch_journal.skipped,
        }

    reports = [serial, parallel, cold, warm, jfirst, jredo]
    identical = all(r.to_dict() == serial.to_dict() for r in reports[1:])

    return {
        "grid_points": len(points),
        "fault_rates": list(RATES),
        "serial_seconds": round(t_serial, 3),
        "parallel_workers": WORKERS,
        "parallel_seconds": round(t_parallel, 3),
        "cache_cold_seconds": round(t_cold, 3),
        "cache_warm_seconds": round(t_warm, 3),
        "journal_cold_seconds": round(t_jcold, 3),
        "journal_relaunch_seconds": round(t_jredo, 3),
        "points_per_minute": {
            "serial": per_minute(len(points), t_serial),
            "parallel": per_minute(len(points), t_parallel),
            "cache_warm": per_minute(len(points), t_warm),
        },
        "speedup_parallel_vs_serial": round(t_serial / t_parallel, 2),
        "speedup_warm_vs_serial": round(t_serial / t_warm, 2),
        "reports_identical_across_modes": identical,
        "cache": cache_stats,
        "journal": journal_stats,
        "lifetimes": {r.point: r.lifetime_applications for r in serial.records},
    }


def big_grid_arms() -> dict:
    """Serial vs chunked parallel pool submission on a >= 64-point grid."""
    points = build_grid(kinds=("stuck_at", "drift"), rates=BIG_RATES, window=1)
    serial, t_serial = timed_run(points, workers=1)
    chunked, t_chunked = timed_run(points, workers=WORKERS)
    return {
        "grid_points": len(points),
        "serial_seconds": round(t_serial, 3),
        "parallel_workers": WORKERS,
        "chunked_seconds": round(t_chunked, 3),
        "speedup_chunked_vs_serial": round(t_serial / t_chunked, 2),
        "reports_identical_across_modes": chunked.to_dict() == serial.to_dict(),
        "serial_reference": serial.to_dict(),
    }


def service_arm(repo_root: pathlib.Path, serial_reference: dict) -> dict:
    """The same big grid drained by worker processes via the job store."""
    from repro.service import CampaignJobSpec, JobStore, worker_main

    # blobs-mini (full) is this benchmark's workload as a preset: the
    # framework configs are identical, so the content-hash point keys
    # match the direct FaultCampaign arms exactly.
    spec = CampaignJobSpec(
        preset="blobs-mini",
        fast=False,
        kinds=("stuck_at", "drift"),
        rates=BIG_RATES,
        window=1,
    )
    with tempfile.TemporaryDirectory() as tmp:
        store = JobStore(tmp, lease_ttl=120.0)
        start = time.perf_counter()
        job_id = store.submit(spec)
        procs = [
            multiprocessing.Process(
                target=worker_main,
                kwargs={
                    "jobs_root": tmp,
                    "drain": True,
                    "worker_id": f"bench-w{i}",
                    "lease_ttl": 120.0,
                    "use_cache": False,
                },
            )
            for i in range(WORKERS)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
        result = store.result(job_id)
        elapsed = time.perf_counter() - start
        status = store.status(job_id)
        leases = status.leases
    return {
        "benchmark": "campaign service: job store + lease scheduler, "
        "multi-process drain (big grid)",
        "grid_points": status.total,
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        "service_seconds": round(elapsed, 3),
        "points_per_minute": per_minute(status.total, elapsed),
        "chunks": leases,
        "report_identical_to_serial": result == serial_reference,
    }


def main() -> int:
    repo_root = pathlib.Path(__file__).resolve().parent.parent

    payload = {
        "benchmark": f"stuck-at fault campaign over {SCENARIO} "
        "(miniature blobs workload)",
        "cpu_count": os.cpu_count(),
        "standard_grid": standard_grid_arms(repo_root),
    }
    ok = payload["standard_grid"]["reports_identical_across_modes"]
    if payload["standard_grid"]["journal"]["relaunch_reexecuted"]:
        print("ERROR: journal relaunch re-executed points", file=sys.stderr)
        ok = False

    service_payload = None
    if not SKIP_BIG:
        big = big_grid_arms()
        serial_reference = big.pop("serial_reference")
        payload["big_grid"] = big
        ok = ok and big["reports_identical_across_modes"]
        service_payload = service_arm(repo_root, serial_reference)
        ok = ok and service_payload["report_identical_to_serial"]
        if MIN_SPEEDUP and big["speedup_chunked_vs_serial"] < MIN_SPEEDUP:
            print(
                f"ERROR: chunked parallel speedup "
                f"{big['speedup_chunked_vs_serial']}x < required "
                f"{MIN_SPEEDUP}x on the big grid",
                file=sys.stderr,
            )
            ok = False

    (repo_root / "BENCH_campaign.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    print(json.dumps(payload, indent=2))
    if service_payload is not None:
        (repo_root / "BENCH_service.json").write_text(
            json.dumps(service_payload, indent=2) + "\n"
        )
        print(json.dumps(service_payload, indent=2))
    if not ok:
        print("ERROR: benchmark validation failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
