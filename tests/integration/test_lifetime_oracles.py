"""A lifetime run that tunes in every window, on every read path.

The golden miniature and the cross-path resume fixtures reach their
target without a sweep, so they never exercise the network's read memo
between pulses (DESIGN.md §11).  This run does: coarse quantization
(4 levels) and heavy drift keep the remapped accuracy below a 0.99
target, so each window runs sign-pulse sweeps.  Production must end in
the same window records, device state and RNG positions as both
oracles, and a resume from any of its snapshots, which carry the memo
key, must finish the run bit for bit.
"""

import pytest

from repro.core.checkpoint import CheckpointManager
from repro.core.lifetime import LifetimeConfig, LifetimeSimulator
from repro.device import DeviceConfig
from repro.mapping import MappedNetwork
from repro.tuning import TuningConfig
from tests.core.test_checkpoint import _tile_states
from tests.oracles import scalar_tuner, uncached_reads

MAX_WINDOWS = 3


def _make_sim(model, dataset) -> LifetimeSimulator:
    device = DeviceConfig(
        n_levels=4, pulses_to_collapse=100, write_noise=0.1, read_noise=0.0
    )
    network = MappedNetwork(model, device, seed=41)
    network.map_network()
    return LifetimeSimulator(
        network,
        dataset.x_train[:96],
        dataset.y_train[:96],
        config=LifetimeConfig(
            apps_per_window=1000,
            drift_magnitude=0.4,
            max_windows=MAX_WINDOWS,
            tuning=TuningConfig(target_accuracy=0.99, max_iterations=10),
        ),
        seed=42,
    )


@pytest.fixture(scope="module")
def production(tmp_path_factory, trained_mlp, blob_dataset):
    """(simulator, result, snapshot dir) of the production run."""
    ckpt_dir = tmp_path_factory.mktemp("tuned")
    sim = _make_sim(trained_mlp, blob_dataset)
    result = sim.run("t+t", checkpoint_every=1, checkpoint_dir=ckpt_dir, run_id="t")
    return sim, result, ckpt_dir


def test_run_tunes(production):
    _sim, result, _dir = production
    assert len(result.windows) == MAX_WINDOWS and not result.failed
    assert any(w.tuning_iterations > 0 for w in result.windows)


@pytest.mark.parametrize("oracle", [uncached_reads, scalar_tuner])
def test_oracle_run_is_bit_identical(production, oracle, trained_mlp, blob_dataset):
    sim, result, _dir = production
    with oracle() as calls:
        reference = _make_sim(trained_mlp, blob_dataset)
        expected = reference.run("t+t")
    assert calls["MappedNetwork.effective_model"] > 0
    if oracle is scalar_tuner:
        assert calls["Crossbar.program_pulses"] > 0
    assert expected.windows == result.windows
    assert _tile_states(reference.network) == _tile_states(sim.network)
    assert (
        reference.tuner._rng.bit_generator.state == sim.tuner._rng.bit_generator.state
    )


def test_resume_from_every_snapshot_is_bit_identical(production):
    sim, result, ckpt_dir = production
    entries = CheckpointManager(ckpt_dir).entries()
    assert [e.window for e in entries] == list(range(1, MAX_WINDOWS + 1))
    for entry in entries:
        resumed = LifetimeSimulator.resume(entry.path)
        assert resumed.run().to_dict() == result.to_dict(), (
            f"resume at window {entry.window} diverged"
        )
        assert _tile_states(resumed.network) == _tile_states(sim.network)
