"""Extension: stuck-at fault tolerance of the mapped network.

Fabrication defects pin devices at LRS/HRS.  This bench sweeps the
fault rate and reports post-mapping accuracy and whether online tuning
can compensate — quantifying how much slack the tuning loop has, which
is also the slack aging eats into.
"""

import numpy as np

from repro.analysis import render_table
from repro.mapping.network import MappedNetwork, clone_model
from repro.robustness import FaultSchedule
from repro.tuning import OnlineTuner, TuningConfig

RATES = (0.0, 0.01, 0.03, 0.1)


def run(lab):
    cfg = lab.preset.framework_config
    x = lab.dataset.x_train[: cfg.tune_samples]
    y = lab.dataset.y_train[: cfg.tune_samples]
    model = lab.baseline_model()
    target = 0.9 * lab.framework.software_accuracy(False)
    rows = []
    for rate in RATES:
        network = MappedNetwork(clone_model(model), cfg.device, seed=31)
        FaultSchedule.single("stuck_at", rate, window=0).apply(
            network, 0, np.random.default_rng(32)
        )
        network.map_network()
        premap = network.score(x, y)
        tuner = OnlineTuner(
            TuningConfig(target_accuracy=target, max_iterations=100), seed=33
        )
        result = tuner.tune(network, x, y)
        rows.append((rate, premap, result.final_accuracy, result.converged))
    return rows, target


def test_ext_fault_tolerance(benchmark, lenet_lab, report):
    rows, target = benchmark.pedantic(lambda: run(lenet_lab), rounds=1, iterations=1)
    report(
        "ext_fault_tolerance",
        render_table(
            ["fault rate", "post-map acc", "post-tune acc", "reached target"],
            [[f"{r:.0%}", f"{p:.3f}", f"{t:.3f}", c] for r, p, t, c in rows],
            title=f"Extension — stuck-at fault sweep (tuning target {target:.3f})",
        ),
    )
    by_rate = {r: (p, t, c) for r, p, t, c in rows}
    # Tuning absorbs low fault rates.
    assert by_rate[0.0][2]
    assert by_rate[0.01][1] >= target - 0.05 or by_rate[0.01][2]
    # Post-tune accuracy degrades monotonically-ish with fault rate.
    assert by_rate[0.1][1] <= by_rate[0.0][1] + 0.02
