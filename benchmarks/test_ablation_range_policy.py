"""Ablation A3: common-range selection policy.

The paper selects the common upper bound by iterating candidates and
keeping the accuracy-best (with our largest-on-tie refinement).  This
ablation compares, on an aged array, the post-mapping accuracy of:

* ``fresh``     — ignore aging, map into the nominal window (baseline);
* ``min``       — most conservative traced bound (reachable everywhere);
* ``max``       — least conservative traced bound;
* ``iterative`` — the paper's accuracy-scored selection.

The iterative policy must match or beat the fixed heuristics.
"""

import numpy as np

from repro.analysis import render_table
from repro.core import Sweep
from repro.device import DeviceConfig
from repro.mapping import AgingAwareMapper, MappedNetwork
from repro.mapping.fresh import FreshMapper
from repro.mapping.network import clone_model

POLICIES = ("fresh", "min", "max", "iterative")


def age_network(net, rng, rounds=60):
    """Heterogeneous aging: hot subset of devices pulsed repeatedly."""
    for layer in net.layers:
        hot = rng.random(layer.matrix_shape) < 0.3
        for _ in range(rounds):
            layer.tiles.program_pulses(hot.astype(int))


def run(lab, workers=1):
    x = lab.dataset.x_train[:192]
    y = lab.dataset.y_train[:192]
    model = lab.framework.trained_model(True)  # trained before fan-out

    def evaluate(policy, rng):
        cfg = DeviceConfig(pulses_to_collapse=80, write_noise=0.1)
        net = MappedNetwork(clone_model(model), cfg, seed=55)
        net.map_network(FreshMapper())
        # Every policy sees the identical aged array: the aging history
        # is seeded per point, not drawn from a shared stream.
        age_network(net, np.random.default_rng(5))
        if policy == "fresh":
            net.map_network(FreshMapper())
        elif policy == "iterative":
            net.map_network(AgingAwareMapper(), selection_data=(x, y))
        else:
            pick = np.min if policy == "min" else np.max
            for layer in net.layers:
                uppers = layer.traced_upper_bounds()
                layer.set_range(net.device_config.r_min, float(pick(uppers)))
                layer.program()
        return {"accuracy": net.score(x, y)}

    sweep = Sweep("policy", evaluate, seed=2024)
    result = sweep.run(POLICIES, fail_fast=True, workers=workers)
    return [(p.value, p.metrics["accuracy"]) for p in result.points]


def test_ablation_range_policy(benchmark, lenet_lab, report, bench_workers):
    rows = benchmark.pedantic(
        lambda: run(lenet_lab, workers=bench_workers), rounds=1, iterations=1
    )
    report(
        "ablation_range_policy",
        render_table(
            ["policy", "post-map accuracy (aged array)"],
            [[name, f"{acc:.3f}"] for name, acc in rows],
            title="Ablation A3 — common-range selection policy",
        ),
    )
    accs = dict(rows)
    # The paper's iterative selection must not lose to the fixed
    # heuristics, and must beat aging-oblivious fresh mapping.
    assert accs["iterative"] >= max(accs["min"], accs["max"]) - 0.03
    assert accs["iterative"] >= accs["fresh"] - 0.02
