"""Ablation A1: trace density (paper traces 1 of 9 devices).

How good is the aged-window estimate when tracing the centre of every
BxB block?  Denser tracing (B=1: every device) is exact but costs a
counter per device; sparser tracing (B=5: 1/25) is cheap but noisier.
Reported: mean absolute estimation error of the aged upper bound after
a heterogeneous aging history, per block size.
"""

import numpy as np

from repro.analysis import render_table
from repro.core import Sweep
from repro.crossbar import BlockTracer, Crossbar
from repro.device import DeviceConfig

BLOCKS = (1, 3, 5)


def _one_history(seed, size, rounds):
    cfg = DeviceConfig(pulses_to_collapse=300, write_noise=0.0)
    xb = Crossbar(size, size, cfg, seed=seed)
    rng = np.random.default_rng(seed)
    xb.program(np.full((size, size), 5e4))
    # Heterogeneous stress: a persistent random subset of hot devices,
    # the pattern tuning traffic produces (gradient-hot devices repeat).
    hot = rng.random((size, size)) < 0.3
    for _ in range(rounds):
        extra = (rng.random((size, size)) < 0.1)
        xb.program_pulses((hot | extra).astype(int))
    return xb


def _evaluate(seed, rng, size=30, rounds=40):
    """All block sizes on one aging history (the history is shared so
    block errors are comparable within a point)."""
    xb = _one_history(seed, size, rounds)
    return {
        f"err_b{block}": BlockTracer(xb, block).estimation_error()
        for block in BLOCKS
    }


def run(size=30, rounds=40, seeds=(0, 1, 2, 3, 4), workers=1):
    """Estimation error per block size, averaged over aging histories
    (a single history can accidentally align with block boundaries)."""
    sweep = Sweep(
        "history_seed", lambda s, rng: _evaluate(s, rng, size, rounds), seed=2024
    )
    result = sweep.run(seeds, fail_fast=True, workers=workers)
    return [
        (b, 1.0 / (b * b), float(np.mean(result.metric(f"err_b{b}"))))
        for b in BLOCKS
    ]


def test_ablation_trace_density(benchmark, report, bench_workers):
    rows = benchmark.pedantic(
        lambda: run(workers=bench_workers), rounds=1, iterations=1
    )
    window = DeviceConfig().r_max - DeviceConfig().r_min
    report(
        "ablation_trace_density",
        render_table(
            ["block", "traced fraction", "mean |est - true| of R_aged_max", "% of window"],
            [
                [b, f"1/{b*b}", f"{e:.0f} Ohm", f"{100*e/window:.2f}%"]
                for b, _f, e in rows
            ],
            title="Ablation A1 — tracing density vs estimation error",
        ),
    )
    errors = {b: e for b, _f, e in rows}
    # Full tracing is exact; sparser tracing degrades gracefully.
    assert errors[1] == 0.0
    assert errors[3] > 0.0
    assert errors[5] >= errors[3] * 0.5
    # The paper's 1-of-9 choice stays accurate: within a few % of the
    # window, i.e. ~one quantization level.
    assert errors[3] < 0.1 * window
