"""The lifetime loop prepares its run-constant inputs once.

Every window scores the same tuning set, and the aging-aware mapper
scores every candidate of a layer on the same selection prefix.
``LifetimeSimulator.run`` unfolds the tuning set through layer 0 once
per run, and ``MappedNetwork.map_network`` unfolds each conv layer's
selection prefix once per layer selection.  A counting ``im2col`` pins
both, so the saving cannot silently regress.

The candidate search is one pass per layer, and counting wrappers pin
that too: one aging-aware map reads each tile's traced window estimate
(``BlockTracer.estimated_bounds``) once, predicts each candidate's
matrix (``quantize_weights``) once, and carries each chosen layer to
the next weighted layer's input in one forward, so no pass starts at
layer 0 after layer 0's own; a fresh map predicts nothing.

The unfolding is a local of ``run()``: no snapshot carries it, and a
run resumed from any window still equals the uninterrupted one.
"""

from __future__ import annotations

import base64
from collections import Counter

import cloudpickle
import numpy as np
import pytest

from repro.core.checkpoint import CheckpointManager, load_checkpoint
from repro.core.lifetime import LifetimeConfig, LifetimeSimulator
from repro.crossbar.tracer import BlockTracer
from repro.device import DeviceConfig
from repro.mapping import AgingAwareMapper, MappedNetwork
from repro.mapping import network as network_module
from repro.nn.layers import conv as conv_module
from repro.nn.model import Sequential
from repro.training import TrainConfig, build_lenet, train_baseline
from repro.tuning import TuningConfig

MAX_WINDOWS = 4
TUNE_SAMPLES = 96


@pytest.fixture(scope="module")
def trained_lenet(glyph_dataset):
    model = build_lenet(seed=5)
    train_baseline(model, glyph_dataset, TrainConfig(epochs=12))
    return model


def make_sim(model, dataset) -> LifetimeSimulator:
    """A LeNet ST+AT run whose every window tunes and converges."""
    device_config = DeviceConfig(pulses_to_collapse=100, write_noise=0.0, read_noise=0.0)
    network = MappedNetwork(model, device_config, seed=41)
    network.map_network()
    config = LifetimeConfig(
        apps_per_window=1000,
        drift_magnitude=0.05,
        max_windows=MAX_WINDOWS,
        tuning=TuningConfig(target_accuracy=0.6, max_iterations=10),
    )
    return LifetimeSimulator(
        network,
        dataset.x_train[:TUNE_SAMPLES],
        dataset.y_train[:TUNE_SAMPLES],
        config=config,
        mapper=AgingAwareMapper(selection_batch=64),
        seed=42,
    )


@pytest.fixture(scope="module")
def plain_run(trained_lenet, glyph_dataset):
    result = make_sim(trained_lenet, glyph_dataset).run("st+at")
    assert len(result.windows) == MAX_WINDOWS and not result.failed
    assert all(w.tuning_iterations > 0 for w in result.windows)  # a run that tunes
    return result


def _record_events(monkeypatch, sim) -> list:
    """Log every ``im2col`` input shape and every range selection, in order."""
    events = []
    im2col = conv_module.im2col

    def counted_im2col(x, *args, **kwargs):
        events.append(("im2col", x.shape))
        return im2col(x, *args, **kwargs)

    select_range = sim.mapper.select_range

    def logged_select_range(mapped, score):
        events.append(("select", mapped.layer_index))
        chosen = select_range(mapped, score)
        events.append(("selected", mapped.layer_index))
        return chosen

    monkeypatch.setattr(conv_module, "im2col", counted_im2col)
    monkeypatch.setattr(sim.mapper, "select_range", logged_select_range)
    return events


def test_tuning_set_unfolded_once_per_run(monkeypatch, trained_lenet, glyph_dataset):
    sim = make_sim(trained_lenet, glyph_dataset)
    events = _record_events(monkeypatch, sim)
    first = sim.network.model.layers[0]
    for _ in range(2):
        events.clear()
        sim.run("st+at")
        layer0_inputs = [
            shape for kind, shape in events if kind == "im2col" and shape[1:] == first.input_shape
        ]
        assert layer0_inputs == [(TUNE_SAMPLES, *first.input_shape)]


def test_conv_prefix_unfolded_once_per_selection(
    monkeypatch, trained_lenet, glyph_dataset
):
    sim = make_sim(trained_lenet, glyph_dataset)
    events = _record_events(monkeypatch, sim)
    result = sim.run("st+at")
    layers = sim.network.model.layers
    inner_convs = {m.layer_index for m in sim.network.layers if m.kind == "conv"} - {0}
    assert inner_convs  # LeNet's second conv

    unfolded = Counter()  # im2col input shapes since the last selection event
    selections = 0
    for kind, value in events:
        if kind == "im2col":
            unfolded[value[1:]] += 1
            continue
        shape = layers[value].input_shape
        if kind == "select" and value in inner_convs:
            # Its prefix was computed and unfolded once, just before.
            assert unfolded[shape] == 1
            selections += 1
        if kind == "selected":
            # Every candidate replayed from the unfolding.
            assert unfolded[shape] == 0
        unfolded.clear()
    assert selections == len(result.windows) * len(inner_convs)


@pytest.fixture()
def aged_network(trained_lenet, device_config):
    """Fresh-mapped LeNet on 32x32 tiles whose devices took uneven wear."""
    network = MappedNetwork(trained_lenet, device_config, 32, 32, seed=31)
    network.map_network()
    rng = np.random.default_rng(31)
    for _ in range(45):
        for layer in network.layers:
            layer.tiles.program_pulses(rng.integers(-1, 2, size=layer.matrix_shape))
    return network


def _count_map_work(monkeypatch, mapper=None) -> tuple:
    """Count the traced-window estimates per tracer and the matrix
    predictions, and log every forward pass's layer slice and every
    range selection, in order."""
    estimates, predictions, events = Counter(), [], []
    estimated_bounds = BlockTracer.estimated_bounds
    quantize_weights = network_module.quantize_weights
    forward = Sequential.forward

    def counted_estimated_bounds(tracer):
        estimates[id(tracer)] += 1
        return estimated_bounds(tracer)

    def counted_quantize_weights(*args, **kwargs):
        predictions.append(1)
        return quantize_weights(*args, **kwargs)

    def logged_forward(model, x, training=False, start=0, stop=None):
        events.append(("forward", (start, stop)))
        return forward(model, x, training=training, start=start, stop=stop)

    monkeypatch.setattr(BlockTracer, "estimated_bounds", counted_estimated_bounds)
    monkeypatch.setattr(network_module, "quantize_weights", counted_quantize_weights)
    monkeypatch.setattr(Sequential, "forward", logged_forward)
    if mapper is not None:
        select_range = mapper.select_range

        def logged_select_range(mapped, score):
            events.append(("select", mapped.layer_index))
            chosen = select_range(mapped, score)
            events.append(("selected", mapped.layer_index))
            return chosen

        monkeypatch.setattr(mapper, "select_range", logged_select_range)
    return estimates, predictions, events


def test_aging_aware_map_prepares_each_layer_once(
    monkeypatch, aged_network, glyph_dataset
):
    mapper = AgingAwareMapper(selection_batch=64)
    estimates, predictions, events = _count_map_work(monkeypatch, mapper)
    aged_network.map_network(mapper, (glyph_dataset.x_train, glyph_dataset.y_train))

    tracers = [t for m in aged_network.layers for t in m.tracers]
    assert len(tracers) > len(aged_network.layers)  # a layer spans several tiles
    assert estimates == Counter(id(t) for t in tracers)
    candidates = [len(sel.candidates) for sel in mapper.history]
    assert max(candidates) > 1  # the search was real
    assert len(predictions) == sum(candidates)

    # Between selections, one forward (64 samples: one chunk) carries the
    # chosen kernel from each layer to the next weighted layer's input;
    # once the second layer's search starts, no forward starts at layer 0.
    indices = [m.layer_index for m in aged_network.layers]
    assert indices[0] == 0
    for here, after in zip(indices, indices[1:]):
        between = events[
            events.index(("selected", here)) + 1 : events.index(("select", after))
        ]
        assert between == [("forward", (here, after))]
    later = events[events.index(("select", indices[1])) :]
    assert all(value[0] in indices[1:] for kind, value in later if kind == "forward")


def test_fresh_map_predicts_nothing(monkeypatch, aged_network):
    estimates, predictions, events = _count_map_work(monkeypatch)
    aged_network.map_network()
    assert not estimates and not predictions and not events


@pytest.fixture(scope="module")
def checkpointed(tmp_path_factory, trained_lenet, glyph_dataset):
    ckpt_dir = tmp_path_factory.mktemp("unfold-ckpts")
    sim = make_sim(trained_lenet, glyph_dataset)
    result = sim.run("st+at", checkpoint_every=1, checkpoint_dir=ckpt_dir, run_id="u")
    return result, CheckpointManager(ckpt_dir).entries()


def test_snapshot_carries_no_unfolding(checkpointed, trained_lenet, glyph_dataset):
    _result, entries = checkpointed
    assert len(entries) == MAX_WINDOWS
    fresh = make_sim(trained_lenet, glyph_dataset)
    unfolding = fresh.network.model.layers[0].unfold(fresh.x_tune)
    # Each image's unfolding is one run of bytes in any pickle that holds it.
    image_bytes = [image.tobytes() for image in unfolding]
    assert all(b in cloudpickle.dumps(unfolding) for b in image_bytes)
    for entry in entries:
        pickled = base64.b64decode(load_checkpoint(entry.path)["context_pickle"])
        assert not any(b in pickled for b in image_bytes)
        restored = LifetimeSimulator.resume(entry.path)
        assert set(vars(restored)) == set(vars(fresh))
        assert restored.network._scratch.layers[0]._cols is None


def test_resume_from_every_window_equals_uninterrupted(plain_run, checkpointed):
    result, entries = checkpointed
    assert result.to_dict() == plain_run.to_dict()
    for entry in entries:
        resumed = LifetimeSimulator.resume(entry.path).run()
        assert resumed.to_dict() == plain_run.to_dict()
