"""The one-pass candidate search equals full re-scoring, map and all.

``MappedNetwork.map_network`` installs the scratch model once, computes
the selection batch's activations at the input of layer ``L`` once,
unfolds them through ``L`` (``Layer.unfold``: the im2col matrix for a
conv layer), replays only ``layers[L:]`` for each candidate common range
of ``L``, keeps the matrix scored for the chosen range, and runs the
chosen kernel forward to the next weighted layer's input.  The oracle
here is the original loop: every candidate's matrix predicted from
scratch (:func:`predicted_matrix`) and scored by
:func:`accuracy_with_matrices` on a full forward pass over the images,
then every layer programmed.  Run on deep copies of the same aged
network, both must produce identical ``RangeSelection.scores`` (exact
float equality), the same chosen ranges, and bit-identical mapped
layers: each layer's Eq. (4) mapping and ``version``, and each tile's
resistances, stress times, pulse counts and RNG state.  The cases cover
LeNet, VGG and an MLP, with the selection batch given as images or as
layer 0's unfolding (as the lifetime loop passes it), including a
selection batch that spans two of ``predict``'s 256-sample chunks, a
weighted layer at index 0, whose prefix is empty, and conv layers at
``L > 0``, whose prefix is unfolded.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.data import make_blobs, make_textured_shapes
from repro.mapping import (
    AgingAwareMapper,
    LinearWeightMapping,
    MappedNetwork,
    quantize_weights,
)
from repro.training import TrainConfig, build_lenet, build_vggnet, train_baseline


def accuracy_with_matrices(network, matrices, x, y) -> float:
    """Accuracy of ``network``'s model with the given device matrices
    installed (software weights elsewhere), on a full forward pass."""
    return network._install_matrices(matrices).score(x, y)


def predicted_matrix(mapped, r_lo, r_hi):
    """``mapped``'s effective weight matrix predicted for a hypothetical
    range, from the *traced* window estimates (not ground truth): the
    information the aging-aware controller actually has."""
    w = mapped.software_matrix()
    mapping = LinearWeightMapping.from_resistance_range(w, r_lo, r_hi)
    est_lo, est_hi = mapped.estimated_bounds()
    return quantize_weights(w, mapping, mapped._grid, est_lo, est_hi)


def reference_map_network(network, policy, x_sel, y_sel):
    """The map as it was: full forward per candidate, then program."""
    predicted = {}
    n = min(len(x_sel), policy.selection_batch)
    for mapped in network.layers:

        def score(r_lo, r_hi, mapped=mapped):
            trial = dict(predicted)
            trial[mapped.layer_index] = predicted_matrix(mapped, r_lo, r_hi)
            return accuracy_with_matrices(network, trial, x_sel[:n], y_sel[:n])

        r_lo, r_hi = policy.select_range(mapped, score)
        mapped.set_range(r_lo, r_hi)
        predicted[mapped.layer_index] = predicted_matrix(mapped, r_lo, r_hi)
    for mapped in network.layers:
        mapped.program()


def mapped_state(network):
    """Everything a map writes: per layer its Eq. (4) mapping and
    ``version``; per tile its devices and RNG state."""
    state = []
    for mapped in network.layers:
        m = mapped.mapping
        tiles = [
            (
                tile.resistance.tobytes(),
                tile.stress_time.tobytes(),
                tile.pulse_counts.tobytes(),
                tile._rng.bit_generator.state,
            )
            for _rs, _cs, tile in mapped.tiles.iter_tiles()
        ]
        state.append(((m.w_min, m.w_max, m.g_min, m.g_max), mapped.version, tiles))
    return state


def _aged(model, device_config, seed: int, sweeps: int = 45) -> MappedNetwork:
    """Fresh-mapped network whose devices took uneven random wear."""
    network = MappedNetwork(model, device_config, seed=seed)
    network.map_network()
    rng = np.random.default_rng(seed)
    for _ in range(sweeps):
        for layer in network.layers:
            directions = rng.integers(-1, 2, size=layer.matrix_shape)
            layer.tiles.program_pulses(directions)
    return network


def _assert_same_search(network, x_sel, y_sel, selection_batch, unfolded=False):
    assert network.layers[0].layer_index == 0  # empty prefix is covered
    oracle_net = copy.deepcopy(network)
    oracle = AgingAwareMapper(selection_batch=selection_batch)
    reference_map_network(oracle_net, oracle, x_sel, y_sel)
    mapper = AgingAwareMapper(selection_batch=selection_batch)
    if unfolded:
        x_sel = network.model.layers[0].unfold(x_sel)
        assert x_sel.ndim == 3
    network.map_network(mapper, (x_sel, y_sel))

    assert len(mapper.history) == len(oracle.history) == len(network.layers)
    for got, want in zip(mapper.history, oracle.history):
        assert got.layer_index == want.layer_index
        assert got.candidates == want.candidates
        assert got.scores == want.scores
        assert (got.chosen_lower, got.chosen_upper) == (
            want.chosen_lower,
            want.chosen_upper,
        )
    assert mapped_state(network) == mapped_state(oracle_net)
    # The search was real: some layer weighed several candidates.
    assert max(len(sel.candidates) for sel in mapper.history) > 1
    return mapper.history


def _scores_apart(history) -> bool:
    """Every layer's candidates scored differently: the network classifies."""
    return all(len(set(sel.scores)) > 1 for sel in history)


@pytest.fixture(scope="module")
def trained_lenet(glyph_dataset):
    model = build_lenet(seed=5)
    train_baseline(model, glyph_dataset, TrainConfig(epochs=20))
    return model


@pytest.fixture(scope="module")
def shapes_dataset():
    return make_textured_shapes(n_train=320, n_test=40, seed=21)


@pytest.fixture(scope="module")
def trained_vgg(shapes_dataset):
    model = build_vggnet(width=6, seed=5)
    train_baseline(model, shapes_dataset, TrainConfig(epochs=12))
    return model


def _has_inner_conv(network) -> bool:
    return any(m.kind == "conv" and m.layer_index > 0 for m in network.layers)


@pytest.mark.parametrize("selection_batch", [64, 300])
def test_lenet_scores_match_full_forward(
    trained_lenet, glyph_dataset, device_config, selection_batch
):
    network = _aged(trained_lenet, device_config, seed=31)
    assert _has_inner_conv(network)
    x_sel, y_sel = glyph_dataset.x_train, glyph_dataset.y_train
    assert len(x_sel) >= 300  # the 300 case spans two 256-sample chunks
    assert _scores_apart(_assert_same_search(network, x_sel, y_sel, selection_batch))


@pytest.mark.parametrize("selection_batch", [64, 300])
def test_lenet_unfolded_scores_match_full_forward(
    trained_lenet, glyph_dataset, device_config, selection_batch
):
    network = _aged(trained_lenet, device_config, seed=31)
    x_sel, y_sel = glyph_dataset.x_train, glyph_dataset.y_train
    history = _assert_same_search(network, x_sel, y_sel, selection_batch, unfolded=True)
    assert _scores_apart(history)


@pytest.mark.parametrize("unfolded", [False, True], ids=["images", "unfolded"])
@pytest.mark.parametrize("selection_batch", [64, 300])
def test_vgg_scores_match_full_forward(
    trained_vgg, shapes_dataset, device_config, selection_batch, unfolded
):
    network = _aged(trained_vgg, device_config, seed=23)
    assert _has_inner_conv(network)
    x_sel, y_sel = shapes_dataset.x_train, shapes_dataset.y_train
    assert len(x_sel) >= 300  # the 300 case spans two 256-sample chunks
    history = _assert_same_search(network, x_sel, y_sel, selection_batch, unfolded)
    assert _scores_apart(history)


@pytest.mark.parametrize("selection_batch", [64, 300])
def test_mlp_scores_match_full_forward(trained_mlp, device_config, selection_batch):
    network = _aged(trained_mlp, device_config, seed=17)
    data = make_blobs(n_samples=480, n_classes=3, n_features=4, spread=0.4, seed=3)
    x_sel, y_sel = data.x_train, data.y_train
    assert len(x_sel) >= 300
    _assert_same_search(network, x_sel, y_sel, selection_batch)
