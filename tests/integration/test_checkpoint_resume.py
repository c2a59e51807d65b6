"""Kill-and-resume integration tests (DESIGN.md §10).

The contract under test is the strongest one the subsystem makes: a
lifetime run that is killed at ANY window boundary and resumed from its
latest snapshot produces the **bit-identical** :class:`LifetimeResult`
— same accuracy floats, same pulse counts, same RNG stream positions —
as a run that was never interrupted.  Likewise a re-launched campaign
over a journal re-executes zero completed points.
"""

import base64
import json

import cloudpickle
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import (
    CheckpointManager,
    RunJournal,
    load_checkpoint,
)
from repro.core.lifetime import LifetimeConfig, LifetimeSimulator
from repro.mapping import MappedNetwork
from repro.tuning import TuningConfig

MAX_WINDOWS = 5


def make_sim(trained_mlp, device_config, blob_dataset) -> LifetimeSimulator:
    """A fresh, deterministic mid-size simulator (same seed every call)."""
    network = MappedNetwork(trained_mlp, device_config, seed=41)
    network.map_network()
    config = LifetimeConfig(
        apps_per_window=1000,
        drift_magnitude=0.05,
        max_windows=MAX_WINDOWS,
        tuning=TuningConfig(target_accuracy=0.9, max_iterations=20),
    )
    return LifetimeSimulator(
        network,
        blob_dataset.x_train[:96],
        blob_dataset.y_train[:96],
        config=config,
        seed=42,
    )


@pytest.fixture(scope="module")
def device_config_module():
    from repro.device import DeviceConfig

    return DeviceConfig(pulses_to_collapse=100, write_noise=0.0, read_noise=0.0)


@pytest.fixture(scope="module")
def run_pair(tmp_path_factory, trained_mlp, device_config_module, blob_dataset):
    """(plain run, checkpointing run + its sim, checkpoint dir)."""
    ckpt_dir = tmp_path_factory.mktemp("ckpts")
    plain = make_sim(trained_mlp, device_config_module, blob_dataset).run("t+t")
    sim = make_sim(trained_mlp, device_config_module, blob_dataset)
    checkpointed = sim.run(
        "t+t", checkpoint_every=1, checkpoint_dir=ckpt_dir, run_id="t"
    )
    return plain, checkpointed, sim, ckpt_dir


class TestKillAndResume:
    def test_checkpointing_is_pure(self, run_pair):
        """Writing snapshots must not perturb the run (no RNG draws)."""
        plain, checkpointed, _sim, _dir = run_pair
        assert checkpointed.to_dict() == plain.to_dict()

    def test_snapshot_per_window(self, run_pair):
        *_, ckpt_dir = run_pair
        entries = CheckpointManager(ckpt_dir).entries()
        assert [e.window for e in entries] == list(range(1, MAX_WINDOWS + 1))

    def test_resume_from_every_window_is_bit_identical(self, run_pair):
        plain, _checkpointed, _sim, ckpt_dir = run_pair
        for entry in CheckpointManager(ckpt_dir).entries():
            resumed = LifetimeSimulator.resume(entry.path).run()
            assert resumed.to_dict() == plain.to_dict(), (
                f"resume at window {entry.window} diverged"
            )

    def test_resumed_run_continues_checkpoint_series(
        self, run_pair, tmp_path, trained_mlp, device_config_module, blob_dataset
    ):
        """A resumed run's later snapshots carry the exact same device
        and RNG state as the uninterrupted run's — resumability composes
        (kill it twice and it still converges to the same trajectory)."""
        plain, _checkpointed, _sim, ckpt_dir = run_pair
        manager = CheckpointManager(ckpt_dir)
        resume_at = 2
        resumed = LifetimeSimulator.resume(
            manager.path_for("t", resume_at)
        ).run(checkpoint_every=1, checkpoint_dir=tmp_path, run_id="t")
        assert resumed.to_dict() == plain.to_dict()
        for window in range(resume_at + 1, MAX_WINDOWS + 1):
            original = load_checkpoint(manager.path_for("t", window))
            again = load_checkpoint(CheckpointManager(tmp_path).path_for("t", window))
            assert _device_state(again) == _device_state(original)
            assert again["result"] == original["result"]

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(window=st.integers(min_value=1, max_value=MAX_WINDOWS))
    def test_resume_at_any_epoch_preserves_rng_stream(self, run_pair, window):
        """Property: for every checkpoint epoch, the resumed run ends
        with the tuner generator in the exact bit-state of the
        uninterrupted run — the stream has no seam."""
        plain, _checkpointed, sim, ckpt_dir = run_pair
        restored = LifetimeSimulator.resume(
            CheckpointManager(ckpt_dir).path_for("t", window)
        )
        result = restored.run()
        assert result.to_dict() == plain.to_dict()
        assert (
            restored.tuner._rng.bit_generator.state
            == sim.tuner._rng.bit_generator.state
        )
        for mapped_a, mapped_b in zip(restored.network.layers, sim.network.layers):
            for (_, _, ta), (_, _, tb) in zip(
                mapped_a.tiles.iter_tiles(), mapped_b.tiles.iter_tiles()
            ):
                assert np.array_equal(ta.resistance, tb.resistance)
                assert ta.state_version == tb.state_version


def _device_state(payload):
    """Every tile's arrays, counters, fault knobs and RNG state, plus the
    tuner and fault streams, decoded from a snapshot's pickled context."""
    from tests.core.test_checkpoint import _tile_states

    sim = cloudpickle.loads(base64.b64decode(payload["context_pickle"]))
    fault = sim._fault_rng.bit_generator.state if sim._fault_rng is not None else None
    return _tile_states(sim.network), sim.tuner._rng.bit_generator.state, fault


#: Stuck-at bursts before and after the persistent knobs, so a resume
#: past window 1 must continue the fault stream, and every knob event
#: lands before later snapshots (noisy reads draw the tiles' streams).
FAULTS = (
    ("stuck_at", dict(window=1, rate=0.01)),
    ("read_noise", dict(window=2, rate=0.05)),
    ("pulse_miss", dict(window=3, rate=0.1)),
    ("stuck_at", dict(window=4, rate=0.01)),
)


class TestResumeUnderFaults:
    @pytest.fixture(scope="class")
    def framework(self):
        from repro.core import AgingAwareFramework
        from repro.core.presets import blobs_mini

        preset = blobs_mini(fast=True)
        return AgingAwareFramework(
            preset.build_network,
            preset.make_dataset(),
            preset.framework_config,
            seed=preset.seed,
        )

    @pytest.mark.parametrize("scenario", ["st+t", "st+at"])
    def test_resume_from_every_window_is_bit_identical(
        self, framework, scenario, tmp_path
    ):
        from repro.robustness import FaultEvent, FaultSchedule

        schedule = FaultSchedule(
            events=tuple(FaultEvent(kind=k, **kw) for k, kw in FAULTS)
        )
        full = framework.run_scenario(
            scenario,
            fault_schedule=schedule,
            checkpoint_every=1,
            checkpoint_dir=tmp_path,
        )
        assert full.to_dict() == framework.run_scenario(
            scenario, fault_schedule=schedule
        ).to_dict()
        entries = CheckpointManager(tmp_path).entries()
        # Every fault event is behind some snapshot, and tuning worked.
        assert len(entries) > FAULTS[-1][1]["window"]
        assert sum(w.tuning_iterations for w in full.windows) > 0
        last_tiles = _device_state(load_checkpoint(entries[-1].path))[0]
        assert all(t[3:5] == (0.05, 0.1) for t in last_tiles)
        for entry in entries:
            resumed = LifetimeSimulator.resume(entry.path).run()
            assert resumed.to_dict() == full.to_dict(), (
                f"{scenario}: resume at window {entry.window} diverged"
            )


class TestCampaignJournalRelaunch:
    GRID = dict(kinds=("stuck_at",), rates=(0.02,), window=1, with_degradation=False)

    def test_relaunch_executes_zero_points(self, tmp_path, monkeypatch):
        from tests.robustness.conftest import make_mini_framework

        from repro.core.framework import AgingAwareFramework
        from repro.robustness import FaultCampaign, build_grid

        points = build_grid(**self.GRID)
        journal_path = tmp_path / "campaign.jsonl"
        first = FaultCampaign(
            make_mini_framework(), scenario="st+at", journal=RunJournal(journal_path)
        ).run(points)

        # The relaunch must satisfy every point from the journal: poison
        # the simulation entry point so any re-execution blows up.
        def boom(self, *a, **k):  # pragma: no cover - must never run
            raise AssertionError("journaled point was re-executed")

        monkeypatch.setattr(AgingAwareFramework, "run_scenario", boom)
        relaunch_journal = RunJournal(journal_path)
        second = FaultCampaign(
            make_mini_framework(), scenario="st+at", journal=relaunch_journal
        ).run(points)
        assert relaunch_journal.skipped == len(points)
        assert [r.to_dict() for r in second.records] == [
            r.to_dict() for r in first.records
        ]

    def test_corrupt_tail_reexecutes_only_lost_point(self, tmp_path):
        from tests.robustness.conftest import make_mini_framework

        from repro.robustness import FaultCampaign, build_grid

        points = build_grid(**self.GRID)
        journal_path = tmp_path / "campaign.jsonl"
        first = FaultCampaign(
            make_mini_framework(), scenario="st+at", journal=RunJournal(journal_path)
        ).run(points)

        # Crash mid-append: the last journal line is torn.
        raw = journal_path.read_bytes()
        journal_path.write_bytes(raw[:-7])
        relaunch_journal = RunJournal(journal_path)
        assert relaunch_journal.dropped_lines == 1
        second = FaultCampaign(
            make_mini_framework(), scenario="st+at", journal=relaunch_journal
        ).run(points)
        assert relaunch_journal.skipped == len(points) - 1
        assert [r.to_dict() for r in second.records] == [
            r.to_dict() for r in first.records
        ]
        # The re-executed point was re-journaled: a third launch is all hits.
        assert len(RunJournal(journal_path)) == len(points)

    def test_parallel_relaunch_replays_journal(self, tmp_path):
        from tests.robustness.conftest import make_mini_framework

        from repro.robustness import FaultCampaign, build_grid

        points = build_grid(**self.GRID)
        journal_path = tmp_path / "campaign.jsonl"
        first = FaultCampaign(
            make_mini_framework(),
            scenario="st+at",
            workers=2,
            journal=RunJournal(journal_path),
        ).run(points)
        relaunch_journal = RunJournal(journal_path)
        second = FaultCampaign(
            make_mini_framework(),
            scenario="st+at",
            workers=2,
            journal=relaunch_journal,
        ).run(points)
        assert relaunch_journal.skipped == len(points)
        assert [r.to_dict() for r in second.records] == [
            r.to_dict() for r in first.records
        ]


class TestResumeCli:
    def test_run_resume_and_checkpoint_tools(
        self, tmp_path, capsys, trained_mlp, device_config_module, blob_dataset
    ):
        from repro.cli import main
        from repro.io import save_result

        ckpt_dir = tmp_path / "ckpts"
        sim = make_sim(trained_mlp, device_config_module, blob_dataset)
        plain = sim.run("t+t")
        sim2 = make_sim(trained_mlp, device_config_module, blob_dataset)
        sim2.run("t+t", checkpoint_every=2, checkpoint_dir=ckpt_dir, run_id="t+t-r0")

        snapshot = ckpt_dir / "t+t-r0-w00002.ckpt.json"
        out = tmp_path / "resumed.json"
        assert main(["run", "--resume", str(snapshot), "--out", str(out)]) == 0
        expected = tmp_path / "expected.json"
        save_result(plain, expected)
        assert json.loads(out.read_text()) == json.loads(expected.read_text())

        assert main(["checkpoints", "ls", "--dir", str(ckpt_dir)]) == 0
        ls_out = capsys.readouterr().out
        assert "t+t-r0" in ls_out and "latest" in ls_out

        assert main(["checkpoints", "inspect", str(snapshot)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["scenario_key"] == "t+t" and info["next_window"] == 2

        assert main(["checkpoints", "gc", "--dir", str(ckpt_dir), "--keep", "1"]) == 0
        remaining = sorted(p.name for p in ckpt_dir.glob("*.ckpt.json"))
        assert remaining == ["t+t-r0-w00004.ckpt.json"]
