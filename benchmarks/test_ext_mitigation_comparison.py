"""Extension: head-to-head of counter-aging techniques.

The paper's Section I surveys prior mitigation families — pulse
shaping [9], series resistors [11], row swapping [12] — and claims its
software/hardware co-optimization wins "without extra hardware cost".
This bench puts behavioural models of the two device-level ones on one
axis: lifetime of the baseline-trained network under each mitigation,
vs the paper's ST+T (no extra hardware, software-only).  Both are
``DeviceConfig -> DeviceConfig`` transforms, so they need no hook in
the lifetime loop.
"""

from repro.analysis import render_table
from repro.core.lifetime import LifetimeConfig, LifetimeSimulator
from repro.mapping.network import MappedNetwork, clone_model
from repro.mitigation import PulseShaping, SeriesResistor
from repro.tuning import TuningConfig


def run(lab):
    cfg = lab.preset.framework_config
    x = lab.dataset.x_train[: cfg.tune_samples]
    y = lab.dataset.y_train[: cfg.tune_samples]

    def lifetime(model, device_cfg, key="ext"):
        network = MappedNetwork(
            clone_model(model),
            device_config=device_cfg,
            tile_rows=cfg.tile_rows,
            tile_cols=cfg.tile_cols,
            trace_block=cfg.trace_block,
            seed=4242,
        )
        target = 0.93 * lab.framework.software_accuracy(model is skewed)
        lifetime_cfg = LifetimeConfig(
            apps_per_window=cfg.lifetime.apps_per_window,
            drift_magnitude=cfg.lifetime.drift_magnitude,
            max_windows=cfg.lifetime.max_windows,
            tuning=TuningConfig(
                target_accuracy=target,
                max_iterations=cfg.lifetime.tuning.max_iterations,
                patience_evals=cfg.lifetime.tuning.patience_evals,
            ),
        )
        sim = LifetimeSimulator(network, x, y, config=lifetime_cfg, seed=77)
        return sim.run(key).lifetime_applications

    baseline = lab.baseline_model()
    skewed = lab.skewed_model()
    device = cfg.device

    sr = SeriesResistor(1e4)
    rows = [
        ("none (T+T)", lifetime(baseline, device), "none"),
        (
            "pulse shaping [9] (triangular)",
            lifetime(baseline, PulseShaping("triangular").apply(device)),
            "waveform generator; 2x programming latency",
        ),
        (
            "series resistor [11] (10 kOhm)",
            lifetime(baseline, sr.apply(device)),
            f"per-cell resistor; G-range compressed to "
            f"{sr.conductance_compression(device):.0%}",
        ),
        ("skewed training (ST+T, this paper)", lifetime(skewed, device), "none"),
    ]
    return rows


def test_ext_mitigation_comparison(benchmark, lenet_lab, report):
    rows = benchmark.pedantic(lambda: run(lenet_lab), rounds=1, iterations=1)
    base = rows[0][1] or 1
    report(
        "ext_mitigation_comparison",
        render_table(
            ["mitigation", "lifetime (apps)", "vs unmitigated", "hardware cost"],
            [[name, life, f"{life / base:.1f}x", cost] for name, life, cost in rows],
            title="Extension — counter-aging techniques on one axis (LeNet role)",
        ),
    )
    lifetimes = {name: life for name, life, _cost in rows}
    # Pulse shaping's lower average voltage must pay off.
    assert lifetimes["pulse shaping [9] (triangular)"] >= base
    # The paper's claim is about *zero extra hardware cost*: skewed
    # training must beat the other low-cost mitigation.  (The per-cell
    # series resistor can win outright — it pays with area and a
    # compressed conductance range, which the table reports.)
    assert (
        lifetimes["skewed training (ST+T, this paper)"]
        > lifetimes["pulse shaping [9] (triangular)"]
    )
