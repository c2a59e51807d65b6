"""Ablation A6: operating temperature.

Eq. (6)–(7) are Arrhenius-activated, so the paper's aging functions are
explicitly temperature-dependent — but its evaluation never varies T.
This ablation sweeps the operating temperature and reports, at a fixed
programming-traffic budget: the remaining usable levels and the
endurance (pulses until a device at worst-case stress dies).  Hotter
devices must age exponentially faster, with the exact Arrhenius ratio.
"""

import numpy as np
import pytest

from repro.analysis import render_table
from repro.core import Sweep
from repro.crossbar import Crossbar
from repro.device import DeviceConfig
from repro.device.aging import BOLTZMANN_EV

TEMPERATURES = (280.0, 300.0, 325.0, 350.0)
TRAFFIC = 400  # worst-case pulses applied before measuring


def _evaluate(temperature, rng):
    cfg = DeviceConfig(
        pulses_to_collapse=2000, temperature=temperature, write_noise=0.0
    )
    # NOTE: calibration is done *at* the configured temperature, so to
    # expose the T-dependence we calibrate once at 300 K and carry
    # those params to every temperature.
    ref = DeviceConfig(pulses_to_collapse=2000, temperature=300.0, write_noise=0.0)
    cfg.aging_params = ref.make_aging_model().params

    cell = Crossbar(1, 1, cfg, seed=1)  # one device
    worst_case = np.full((1, 1), cfg.r_min)
    endurance = 0
    levels_after_traffic = -1.0  # sentinel: dead before the budget
    while not cell.dead_mask()[0, 0] and endurance < 100_000:
        cell.program(worst_case, only_changed=False)
        endurance += 1
        if endurance == TRAFFIC:
            levels_after_traffic = float(cell.usable_level_counts()[0, 0])
    return {"levels": levels_after_traffic, "endurance": float(endurance)}


def run(workers=1):
    sweep = Sweep("temperature", _evaluate, seed=2024)
    result = sweep.run(TEMPERATURES, fail_fast=True, workers=workers)
    return [
        (p.value, p.metrics["levels"], p.metrics["endurance"]) for p in result.points
    ]


def test_ablation_temperature(benchmark, report, bench_workers):
    rows = benchmark.pedantic(
        lambda: run(workers=bench_workers), rounds=1, iterations=1
    )
    report(
        "ablation_temperature",
        render_table(
            ["temperature (K)", f"levels after {TRAFFIC} pulses", "endurance (pulses)"],
            [
                [f"{t:.0f}", f"{lv:.0f}" if lv >= 0 else "dead", f"{e:.0f}"]
                for t, lv, e in rows
            ],
            title="Ablation A6 — operating temperature (calibrated at 300 K)",
        ),
    )
    by_t = {t: (lv, e) for t, lv, e in rows}
    # Monotone: hotter -> fewer surviving levels, shorter endurance.
    endurances = [by_t[t][1] for t in TEMPERATURES]
    assert endurances == sorted(endurances, reverse=True)
    # The endurance ratio between 300 K and 350 K matches Arrhenius
    # within discretization (endurance ∝ 1/rate for the linear-time
    # model).
    ea = DeviceConfig().activation_energy
    expected = np.exp(ea / BOLTZMANN_EV * (1 / 300.0 - 1 / 350.0))
    measured = by_t[300.0][1] / by_t[350.0][1]
    assert measured == pytest.approx(expected, rel=0.1)
