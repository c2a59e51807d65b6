"""Measure the execution engine: serial vs parallel vs cached.

Runs the full 4-scenario comparison (t+t, t+at, st+t, st+at) on the
miniature blobs workload three ways —

* serial       (``workers=1``, no cache): the reference;
* parallel     (``workers=4``, no cache): process-pool fan-out;
* cache warm+hit: one populating pass, then a fully cached pass;

— verifies all runs produce identical comparisons, and writes the
timings to ``BENCH_executor.json`` at the repository root.

Usage::

    PYTHONPATH=src python benchmarks/run_executor_bench.py

Note on parallel speedup: fan-out pays off with the >= 2 physical cores
of any normal dev box / CI runner; on a single-core container the pool
only adds process overhead, and the recorded numbers will honestly say
so (``cpu_count`` is part of the output).
"""

from __future__ import annotations

import json
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
)
from repro.data import make_blobs
from repro.device import DeviceConfig
from repro.training import SkewedTrainingConfig, TrainConfig, build_mlp
from repro.tuning import TuningConfig

SCENARIOS = ("t+t", "t+at", "st+t", "st+at")


def make_framework() -> AgingAwareFramework:
    data = make_blobs(n_samples=400, n_classes=3, n_features=6, spread=0.4, seed=3)
    config = FrameworkConfig(
        device=DeviceConfig(pulses_to_collapse=20, write_noise=0.1),
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
            max_windows=60,
            tuning=TuningConfig(max_iterations=60),
        ),
        tune_samples=160,
        target_fraction=0.92,
    )
    return AgingAwareFramework(
        lambda seed: build_mlp(6, 3, hidden=(24,), seed=seed), data, config, seed=7
    )


def timed_compare(framework, **kwargs):
    start = time.perf_counter()
    comparison = framework.compare(SCENARIOS, **kwargs)
    return comparison, time.perf_counter() - start


def main() -> int:
    repo_root = pathlib.Path(__file__).resolve().parent.parent

    # Each arm gets a fresh framework: same seed, no shared training
    # cache, so the timings include identical work.
    serial, t_serial = timed_compare(make_framework(), workers=1)
    parallel, t_parallel = timed_compare(make_framework(), workers=4)

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        warm, t_warm = timed_compare(make_framework(), workers=4, cache=cache)
        cached, t_cached = timed_compare(make_framework(), workers=4, cache=cache)
        cache_stats = {"hits": cache.hits, "misses": cache.misses}

    identical = all(
        serial.results[k] == parallel.results[k] == warm.results[k] == cached.results[k]
        for k in SCENARIOS
    )
    payload = {
        "benchmark": "4-scenario compare (miniature blobs workload)",
        "scenarios": list(SCENARIOS),
        "cpu_count": os.cpu_count(),
        "serial_seconds": round(t_serial, 3),
        "parallel_workers4_seconds": round(t_parallel, 3),
        "cache_populate_seconds": round(t_warm, 3),
        "cached_seconds": round(t_cached, 3),
        "speedup_parallel_vs_serial": round(t_serial / t_parallel, 2),
        "speedup_cached_vs_serial": round(t_serial / t_cached, 2),
        "results_identical_across_modes": identical,
        "cache": cache_stats,
        "lifetimes": {k: serial.results[k].lifetime_applications for k in SCENARIOS},
    }
    out = repo_root / "BENCH_executor.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    if not identical:
        print("ERROR: modes disagree", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
