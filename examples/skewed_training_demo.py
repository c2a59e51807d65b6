"""Skewed-weight training demo (paper Section IV-A, Fig. 6/7/9).

Trains the LeNet-role CNN conventionally, then reruns training with the
two-segment skewed regularizer, and shows what changes: the weight
distribution, the mapped resistance distribution, the quantization
error, and the per-pulse aging stress.

Run:  python examples/skewed_training_demo.py   (~1 minute)
"""

import numpy as np

from repro import DeviceConfig, MappedNetwork, SkewedTrainingConfig, TrainConfig
from repro.analysis import (
    ascii_histogram,
    resistance_histogram,
    weight_histogram,
)
from repro.mapping import LinearWeightMapping
from repro.mapping.network import clone_model
from repro.mapping.quantize import quantization_error
from repro.data import make_glyph_digits
from repro.training import build_lenet, distribution_skewness, skewed_train, train_baseline


def describe(model, data, device, label):
    weights = model.all_weight_values()
    mapping = LinearWeightMapping.from_weights(weights, device.g_min, device.g_max)
    grid = device.make_level_grid()
    targets = np.asarray(mapping.weight_to_resistance(weights))

    net = MappedNetwork(clone_model(model), device, seed=1)
    net.map_network()

    print(f"--- {label} ---")
    print(f"test accuracy (software): {model.score(data.x_test, data.y_test):.3f}")
    print(f"test accuracy (mapped):   {net.score(data.x_test, data.y_test):.3f}")
    print(f"weight skewness:          {distribution_skewness(weights):+.2f}")
    print(f"median mapped resistance: {np.median(targets):.0f} Ohm")
    print(f"mean per-pulse stress:    {np.mean(device.stress_factor(targets)):.3f}")
    print(f"quantization RMS error:   {quantization_error(weights, mapping, grid):.4f}")

    edges, counts = weight_histogram(weights, bins=18)
    print("weight distribution:")
    print(ascii_histogram(edges, counts, width=30))
    edges, counts = resistance_histogram(weights, mapping, bins=12)
    print("mapped resistance distribution (kOhm):")
    print(ascii_histogram(edges / 1e3, counts, width=30))
    print()


def main() -> None:
    data = make_glyph_digits(n_train=1200, n_test=300, seed=11)
    device = DeviceConfig()

    baseline = build_lenet(seed=5)
    train_baseline(baseline, data, TrainConfig(epochs=20))
    describe(baseline, data, device, "conventional training (T)")

    skewed = clone_model(baseline)
    result = skewed_train(
        skewed, data, SkewedTrainingConfig(skew_epochs=15), pretrained=True
    )
    print(f"per-layer reference weights beta_i: "
          + ", ".join(f"L{i}={b:+.3f}" for i, b in result.betas.items()))
    describe(skewed, data, device, "skewed training (ST)")


if __name__ == "__main__":
    main()
