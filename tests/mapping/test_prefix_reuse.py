"""Candidate scoring with a shared forward prefix equals full re-scoring.

``MappedNetwork.map_network`` computes the selection batch's activations
at the input of layer ``L`` once and replays only ``layers[L:]`` for
each candidate common range of ``L``.  The oracle here is the original
loop: every candidate scored by ``_accuracy_with_matrices`` on a full
forward pass.  Run on deep copies of the same aged network, both must
produce identical ``RangeSelection.scores`` (exact float equality) and
the same chosen ranges — including a selection batch that spans two of
``predict``'s 256-sample chunks and a weighted layer at index 0, whose
prefix is empty.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.data import make_blobs
from repro.mapping import AgingAwareMapper, MappedNetwork
from repro.training import TrainConfig, build_lenet, train_baseline


def reference_map_network(network, policy, x_sel, y_sel):
    """The candidate search as it was: full forward per candidate."""
    predicted = {}
    n = min(len(x_sel), policy.selection_batch)
    for mapped in network.layers:

        def score(r_lo, r_hi, mapped=mapped):
            trial = dict(predicted)
            trial[mapped.layer_index] = mapped.predicted_matrix(r_lo, r_hi)
            return network._accuracy_with_matrices(trial, x_sel[:n], y_sel[:n])

        r_lo, r_hi = policy.select_range(mapped, score)
        mapped.set_range(r_lo, r_hi)
        predicted[mapped.layer_index] = mapped.predicted_matrix(r_lo, r_hi)


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


def _assert_same_search(network, x_sel, y_sel, selection_batch):
    assert network.layers[0].layer_index == 0  # empty prefix is covered
    oracle_net = copy.deepcopy(network)
    oracle = AgingAwareMapper(selection_batch=selection_batch)
    reference_map_network(oracle_net, oracle, x_sel, y_sel)
    mapper = AgingAwareMapper(selection_batch=selection_batch)
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
    # The search was real: some layer weighed several candidates.
    assert max(len(sel.candidates) for sel in mapper.history) > 1


@pytest.fixture(scope="module")
def trained_lenet(glyph_dataset):
    model = build_lenet(seed=5)
    train_baseline(model, glyph_dataset, TrainConfig(epochs=2))
    return model


@pytest.mark.parametrize("selection_batch", [64, 300])
def test_lenet_scores_match_full_forward(
    trained_lenet, glyph_dataset, device_config, selection_batch
):
    network = _aged(trained_lenet, device_config, seed=31)
    x_sel, y_sel = glyph_dataset.x_train, glyph_dataset.y_train
    assert len(x_sel) >= 300  # the 300 case spans two 256-sample chunks
    _assert_same_search(network, x_sel, y_sel, selection_batch)


@pytest.mark.parametrize("selection_batch", [64, 300])
def test_mlp_scores_match_full_forward(trained_mlp, device_config, selection_batch):
    network = _aged(trained_mlp, device_config, seed=17)
    data = make_blobs(n_samples=480, n_classes=3, n_features=4, spread=0.4, seed=3)
    x_sel, y_sel = data.x_train, data.y_train
    assert len(x_sel) >= 300
    _assert_same_search(network, x_sel, y_sel, selection_batch)
