"""Device-level tour: a single memristor's aging life, and an analog
crossbar doing vector-matrix multiplication.

A single device is a 1x1 :class:`~repro.crossbar.Crossbar`.

Run:  python examples/device_playground.py
"""

import numpy as np

from repro import Crossbar, DeviceConfig


def _window(cell: Crossbar):
    lo, hi = cell.aged_bounds()
    return float(lo[0, 0]), float(hi[0, 0])


def single_cell_demo() -> None:
    print("== one memristor, programmed until its window collapses ==")
    config = DeviceConfig(pulses_to_collapse=400, n_levels=8, write_noise=0.0)
    cell = Crossbar(1, 1, config, seed=1)
    print(
        f"fresh window: {_window(cell)}, levels: {cell.usable_level_counts()[0, 0]}"
    )

    checkpoints = {50, 100, 200, 300, 350}
    pulses = 0
    while not cell.dead_mask()[0, 0]:
        # Alternate low/high targets: worst-case programming traffic.
        target = config.r_min if pulses % 2 else config.r_max
        cell.program(np.full((1, 1), target), only_changed=False)
        pulses += 1
        if pulses in checkpoints:
            lo, hi = _window(cell)
            print(
                f"after {pulses:>4d} pulses: window=[{lo:>8.0f}, {hi:>8.0f}] "
                f"levels={cell.usable_level_counts()[0, 0]}"
            )
    print(f"cell died after {cell.total_pulses()} pulses (fewer than 2 usable levels)\n")


def crossbar_vmm_demo() -> None:
    r_tia = 1e3  # transimpedance gain of the column read-out (Ohm)
    print("== 8x4 crossbar computing V_O = V_I * G * R_tia ==")
    config = DeviceConfig(write_noise=0.0)
    xbar = Crossbar(8, 4, config, seed=2)

    rng = np.random.default_rng(3)
    targets = rng.uniform(2e4, 8e4, size=(8, 4))
    xbar.program(targets)

    v_in = rng.uniform(-1, 1, size=8)
    v_out = v_in @ xbar.read_conductances() * r_tia
    ideal = v_in @ (1.0 / targets) * r_tia
    print(f"input voltages:     {np.round(v_in, 3)}")
    print(f"unquantized out:    {np.round(ideal, 4)}")
    print(f"programmed out:     {np.round(v_out, 4)}")
    print(f"quantization error: {np.max(np.abs(v_out - ideal)):.4f} V\n")


def aging_gradient_demo() -> None:
    print("== current-dependent aging: low-R programming wears faster ==")
    config = DeviceConfig(pulses_to_collapse=1000)
    for target in (1.2e4, 3e4, 9e4):
        cell = Crossbar(1, 1, config, seed=4)
        for _ in range(300):
            cell.program(np.full((1, 1), target), only_changed=False)
        lo, hi = _window(cell)
        print(
            f"300 pulses at R={target:>6.0f}: stress={cell.stress_time[0, 0]*1e6:7.1f} us, "
            f"aged window=[{lo:.0f}, {hi:.0f}]"
        )


if __name__ == "__main__":
    single_cell_demo()
    crossbar_vmm_demo()
    aging_gradient_demo()
