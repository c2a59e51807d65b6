"""Ablation A4: skew strength (lambda1 sweep at fixed lambda2).

How does the left-side penalty trade accuracy against the properties
aging cares about?  Reported per lambda1: validation accuracy, median
mapped resistance (current reduction) and the mean per-pulse stress
factor of the mapped array (what the aging integral actually sees).
"""

import numpy as np

from repro.analysis import render_table
from repro.core import Sweep
from repro.device import DeviceConfig
from repro.mapping import MappedNetwork
from repro.mapping.network import clone_model
from repro.training import SkewedTrainingConfig, skewed_train

LAMBDA1S = (0.0, 5e-3, 2e-2, 5e-2, 1e-1)


def run(lab, workers=1):
    base = lab.baseline_model()  # trained in the parent before fan-out
    cfg = DeviceConfig()

    def evaluate(lam1, rng):
        if lam1 == 0.0:
            model = clone_model(base)
        else:
            model = clone_model(base)
            skewed_train(
                model,
                lab.dataset,
                SkewedTrainingConfig(
                    beta_scale=-1.0, lambda1=lam1, lambda2=min(1e-3, lam1),
                    skew_epochs=12,
                ),
                pretrained=True,
            )
        net = MappedNetwork(clone_model(model), cfg, seed=3)
        net.map_network()
        targets = np.concatenate(
            [
                np.asarray(
                    m.mapping.weight_to_resistance(m.software_matrix())
                ).ravel()
                for m in net.layers
            ]
        )
        return {
            "val_acc": model.score(lab.dataset.x_test, lab.dataset.y_test),
            "median_r": float(np.median(targets)),
            "stress": float(np.mean(cfg.stress_factor(targets))),
        }

    sweep = Sweep("lambda1", evaluate, seed=2024)
    result = sweep.run(LAMBDA1S, fail_fast=True, workers=workers)
    return [
        (p.value, p.metrics["val_acc"], p.metrics["median_r"], p.metrics["stress"])
        for p in result.points
    ]


def test_ablation_skew_strength(benchmark, lenet_lab, report, bench_workers):
    rows = benchmark.pedantic(
        lambda: run(lenet_lab, workers=bench_workers), rounds=1, iterations=1
    )
    report(
        "ablation_skew_strength",
        render_table(
            ["lambda1", "val acc", "median mapped R", "mean stress factor"],
            [
                [f"{r[0]:g}", f"{r[1]:.3f}", f"{r[2]:.0f}", f"{r[3]:.3f}"]
                for r in rows
            ],
            title="Ablation A4 — skew strength (lambda2 = min(1e-3, lambda1))",
        ),
    )
    by_lam = {r[0]: r for r in rows}
    # Stress falls monotonically-ish with skew strength...
    assert by_lam[5e-2][3] < by_lam[0.0][3]
    assert by_lam[2e-2][3] < by_lam[0.0][3]
    # ...while the preset's operating point keeps accuracy.
    assert by_lam[5e-2][1] > by_lam[0.0][1] - 0.05
