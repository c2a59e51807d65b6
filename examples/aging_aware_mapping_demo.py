"""Aging-aware mapping demo (paper Section IV-B / Fig. 8).

Ages a mapped network heterogeneously, then shows what each mapping
policy does with the damaged array: the candidate common ranges the
tracer sees, the score of each candidate, and the post-mapping accuracy
of fresh vs aging-aware mapping.

Run:  python examples/aging_aware_mapping_demo.py   (~1 minute)
"""

import numpy as np

from repro import DeviceConfig, MappedNetwork, TrainConfig
from repro.data import make_glyph_digits
from repro.mapping import AgingAwareMapper
from repro.mapping.fresh import FreshMapper
from repro.mapping.network import clone_model
from repro.training import build_lenet, train_baseline


def main() -> None:
    data = make_glyph_digits(n_train=1200, n_test=300, seed=11)
    model = build_lenet(seed=5)
    train_baseline(model, data, TrainConfig(epochs=20))
    x, y = data.x_train[:192], data.y_train[:192]
    print(f"software accuracy: {model.score(x, y):.3f}")

    device = DeviceConfig(pulses_to_collapse=80, write_noise=0.1)

    def build_aged_network(seed: int) -> MappedNetwork:
        """Map, then age the array: every device sees programming
        traffic (common-mode level loss), a hot subset sees more."""
        net = MappedNetwork(clone_model(model), device, seed=seed)
        net.map_network(FreshMapper())
        rng = np.random.default_rng(seed)
        for layer in net.layers:
            hot = rng.random(layer.matrix_shape) < 0.3
            everyone = np.ones(layer.matrix_shape, dtype=int)
            for k in range(45):
                layer.tiles.program_pulses(everyone if k % 3 else hot.astype(int))
        return net

    # Fresh (aging-oblivious) remap of the damaged array.
    net = build_aged_network(seed=55)
    net.map_network(FreshMapper())
    print(f"\nfresh remap of the aged array:       accuracy {net.score(x, y):.3f}")

    # Aging-aware remap: show the Fig. 8 selection per layer.
    net = build_aged_network(seed=55)
    mapper = AgingAwareMapper()
    net.map_network(mapper, selection_data=(x, y))
    print(f"aging-aware remap of the aged array:  accuracy {net.score(x, y):.3f}\n")

    print("per-layer candidate selection (Fig. 8):")
    for selection in mapper.history:
        candidates = ", ".join(
            f"{c/1e3:.0f}k{'*' if c == selection.chosen_upper else ''}"
            for c in selection.candidates
        )
        scores = ", ".join(f"{s:.3f}" for s in selection.scores)
        print(f"  layer {selection.layer_index}: candidates R_max = [{candidates}]")
        print(f"           predicted accuracies = [{scores}]")
    print("\n(* = selected common upper bound; the accuracy-scored")
    print("iteration over traced aged bounds is the paper's Section IV-B)")


if __name__ == "__main__":
    main()
