"""Unit tests for the checkpoint/resume subsystem (DESIGN.md §10).

Covers the snapshot file format (atomicity is delegated to
:func:`repro.io.save_text_atomic`; here we verify versioning, content
hashing and corruption detection), the capture/restore round trip on a
real mid-run simulator, directory management (ls/gc semantics) and the
crash-safe campaign journal.  The end-to-end kill-and-resume
bit-identity property lives in
``tests/integration/test_checkpoint_resume.py``.
"""

import base64
import hashlib
import json

import cloudpickle
import numpy as np
import pytest

from repro.core.checkpoint import (
    CHECKPOINT_SCHEMA,
    CHECKPOINT_SUFFIX,
    CheckpointManager,
    RunJournal,
    capture_simulator,
    inspect_checkpoint,
    load_checkpoint,
    restore_simulator,
    save_checkpoint,
    split_snapshot_name,
)
from repro.core.lifetime import LifetimeConfig, LifetimeSimulator
from repro.crossbar import Crossbar
from repro.exceptions import CheckpointError, ConfigurationError
from repro.io import save_text_atomic
from repro.mapping import MappedNetwork
from repro.nn.layers import Layer
from repro.tuning import TuningConfig


@pytest.fixture()
def simulator(trained_mlp, device_config, blob_dataset):
    return _make_simulator(trained_mlp, device_config, blob_dataset)


def _make_simulator(trained_mlp, device_config, blob_dataset, fault_schedule=None):
    network = MappedNetwork(trained_mlp, device_config, seed=41)
    network.map_network()
    config = LifetimeConfig(
        apps_per_window=1000,
        drift_magnitude=0.05,
        max_windows=4,
        tuning=TuningConfig(target_accuracy=0.9, max_iterations=20),
    )
    return LifetimeSimulator(
        network,
        blob_dataset.x_train[:96],
        blob_dataset.y_train[:96],
        config=config,
        seed=42,
        fault_schedule=fault_schedule,
    )


#: The five per-device arrays every crossbar tile carries.
TILE_ARRAYS = ("resistance", "stress_time", "pulse_counts", "r_fresh_min", "r_fresh_max")


class TestSnapshotFile:
    PAYLOAD = {"meta": {"scenario_key": "t+t"}, "result": {}, "n": 3}

    def test_roundtrip(self, tmp_path):
        path = tmp_path / f"a{CHECKPOINT_SUFFIX}"
        assert save_checkpoint(self.PAYLOAD, path) == path
        assert load_checkpoint(path) == self.PAYLOAD

    def test_payload_written_in_its_canonical_encoding(self, tmp_path):
        """The file holds the payload as the exact text its digest hashes."""
        path = save_checkpoint(self.PAYLOAD, tmp_path / f"a{CHECKPOINT_SUFFIX}")
        raw = path.read_text()
        canonical = json.dumps(self.PAYLOAD, sort_keys=True, separators=(",", ":"))
        document = json.loads(raw)
        assert raw == (
            '{"kind": "repro-lifetime-checkpoint", '
            f'"payload": {canonical}, "schema": {CHECKPOINT_SCHEMA}, '
            f'"sha256": "{document["sha256"]}"}}'
        )
        assert document["sha256"] == hashlib.sha256(canonical.encode()).hexdigest()

    def test_generic_json_layout_still_loads(self, tmp_path):
        """Files laid out by the generic JSON writer (default separators
        around the payload, as earlier builds wrote them) still verify."""
        path = tmp_path / f"old{CHECKPOINT_SUFFIX}"
        canonical = json.dumps(self.PAYLOAD, sort_keys=True, separators=(",", ":"))
        document = {
            "schema": CHECKPOINT_SCHEMA,
            "kind": "repro-lifetime-checkpoint",
            "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
            "payload": self.PAYLOAD,
        }
        save_text_atomic(json.dumps(document, sort_keys=True), path)
        assert load_checkpoint(path) == self.PAYLOAD

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(tmp_path / "nope.ckpt.json")

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "torn.ckpt.json"
        path.write_text('{"schema": 1, "kind": "repro-life')
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(path)

    def test_foreign_json_rejected(self, tmp_path):
        path = tmp_path / "other.ckpt.json"
        path.write_text(json.dumps({"schema": 1, "payload": {}}))
        with pytest.raises(CheckpointError, match="not a lifetime checkpoint"):
            load_checkpoint(path)

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "future.ckpt.json"
        save_checkpoint(self.PAYLOAD, path)
        document = json.loads(path.read_text())
        document["schema"] = CHECKPOINT_SCHEMA + 1
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="unknown checkpoint schema"):
            load_checkpoint(path)

    #: What each retired schema's payload held beside ``meta``/``result``.
    #: Schema 1 kept a structured copy of every tile beside the pickle.
    #: Schema 2 had this layout, but its pickled mapped layers lack the
    #: counter that keys the network's read memo.  Schema 3's pickled
    #: mapped layers and simulators carry a row permutation and a hook
    #: list this build no longer has, so a snapshot taken with a
    #: permutation would resume with the wrong reads.  Schemas 4 and 5
    #: pickle fault events with one field per fault kind.
    OLD_SCHEMAS = {
        1: {"layers": [], "rng": {"tuner": {}, "fault": None}},
        2: {"context_pickle": ""},
        3: {"context_pickle": ""},
        4: {"context_pickle": ""},
        5: {"context_pickle": ""},
    }

    @pytest.mark.parametrize("schema", sorted(OLD_SCHEMAS))
    def test_old_schema_rejected(self, tmp_path, schema):
        path = tmp_path / f"v{schema}{CHECKPOINT_SUFFIX}"
        payload = {**self.PAYLOAD, **self.OLD_SCHEMAS[schema]}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        document = {
            "schema": schema,
            "kind": "repro-lifetime-checkpoint",
            "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
            "payload": payload,
        }
        save_text_atomic(json.dumps(document, sort_keys=True), path)
        with pytest.raises(
            CheckpointError, match=f"unknown checkpoint schema {schema}"
        ):
            load_checkpoint(path)

    def test_bit_rot_detected(self, tmp_path):
        path = tmp_path / "rot.ckpt.json"
        save_checkpoint(self.PAYLOAD, path)
        document = json.loads(path.read_text())
        document["payload"]["n"] = 4  # flip a bit past the recorded digest
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="content hash mismatch"):
            load_checkpoint(path)


class TestCaptureRestore:
    def _mid_run_payload(self, simulator):
        result = simulator.run("t+t")
        return capture_simulator(
            simulator, result, len(result.windows), result.lifetime_applications
        )

    def test_capture_draws_no_randomness(self, simulator):
        result = simulator.run("t+t")
        before = simulator.tuner._rng.bit_generator.state
        capture_simulator(simulator, result, 4, 4000)
        assert simulator.tuner._rng.bit_generator.state == before

    def test_roundtrip_restores_exact_state(self, simulator, tmp_path):
        payload = self._mid_run_payload(simulator)
        path = save_checkpoint(payload, tmp_path / f"t+t{CHECKPOINT_SUFFIX}")
        restored, result, next_window, applications = restore_simulator(
            load_checkpoint(path)
        )
        assert next_window == len(result.windows)
        assert applications == result.lifetime_applications
        assert _tile_states(restored.network) == _tile_states(simulator.network)
        assert (
            restored.tuner._rng.bit_generator.state
            == simulator.tuner._rng.bit_generator.state
        )

    def test_capture_keeps_live_caches(self, simulator):
        """Caches are dropped from the pickle, not from the running
        simulator: capturing mid-run clears nothing it reads next."""
        result = simulator.run("t+t")
        forward = _forward_caches(simulator.network)
        tiles = [
            [getattr(tile, cache) for cache in _TILE_CACHES]
            for _, tile in _tiles(simulator.network)
        ]
        assert forward and _tile_caches(simulator.network)
        capture_simulator(simulator, result, 4, 4000)
        assert _forward_caches(simulator.network) == forward
        for cached, (_, tile) in zip(tiles, _tiles(simulator.network)):
            for value, cache in zip(cached, _TILE_CACHES):
                assert getattr(tile, cache) is value

    @pytest.mark.parametrize("name", TILE_ARRAYS)
    def test_restored_tile_arrays_are_exact_writable_copies(
        self, simulator, name
    ):
        """Every tile array comes back with its dtype, shape and bytes,
        writable (the resumed run updates it) and sharing no memory with
        the live simulator's."""
        restored, *_ = restore_simulator(self._mid_run_payload(simulator))
        pairs = list(zip(_tiles(restored.network), _tiles(simulator.network)))
        assert pairs
        for (index, tile), (live_index, live) in pairs:
            assert index == live_index
            got, want = getattr(tile, name), getattr(live, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert got.flags.writeable
            assert not np.shares_memory(got, want)

    def test_restored_streams_draw_the_live_run_next_numbers(self, simulator):
        """The tuner's and every tile's generator resume at the live
        run's stream position: their next draws are the same numbers."""
        restored, *_ = restore_simulator(self._mid_run_payload(simulator))
        streams = [(restored.tuner._rng, simulator.tuner._rng)] + [
            (tile._rng, live._rng)
            for (_, tile), (_, live) in zip(
                _tiles(restored.network), _tiles(simulator.network)
            )
        ]
        for got, want in streams:
            assert got is not want
            assert np.array_equal(got.random(8), want.random(8))

    def test_fault_stream_and_knobs_survive(
        self, trained_mlp, device_config, blob_dataset
    ):
        """Under a fault schedule the snapshot carries the schedule, the
        fault stream's position and every tile's persistent fault knobs."""
        from repro.robustness import FaultEvent, FaultSchedule

        schedule = FaultSchedule(
            events=(
                FaultEvent(kind="stuck_at", window=1, rate=0.02),
                FaultEvent(kind="read_noise", window=1, rate=0.02),
                FaultEvent(kind="pulse_miss", window=2, rate=0.05),
            )
        )
        simulator = _make_simulator(
            trained_mlp, device_config, blob_dataset, fault_schedule=schedule
        )
        restored, *_ = restore_simulator(self._mid_run_payload(simulator))
        assert restored.fault_schedule == schedule
        assert (
            restored._fault_rng.bit_generator.state
            == simulator._fault_rng.bit_generator.state
        )
        knobs = [
            (tile.read_noise_extra, tile.pulse_miss_rate)
            for _, tile in _tiles(restored.network)
        ]
        assert knobs and set(knobs) == {(0.02, 0.05)}
        assert _tile_states(restored.network) == _tile_states(simulator.network)

    def test_inspect_summary(self, simulator, tmp_path):
        payload = self._mid_run_payload(simulator)
        path = save_checkpoint(payload, tmp_path / f"t+t{CHECKPOINT_SUFFIX}")
        info = inspect_checkpoint(path)
        assert info["scenario_key"] == "t+t"
        assert info["next_window"] == 4
        assert info["windows_recorded"] == 4
        assert info["schema"] == CHECKPOINT_SCHEMA
        tiles = [
            tile
            for mapped in simulator.network.layers
            for _, _, tile in mapped.tiles.iter_tiles()
        ]
        assert info["layers"] == len(simulator.network.layers)
        assert info["tiles"] == len(tiles) >= info["layers"]
        assert info["devices"] == sum(tile.resistance.size for tile in tiles)
        assert info["bytes"] == path.stat().st_size
        assert info["context_bytes"] == len(
            base64.b64decode(payload["context_pickle"])
        )
        assert info["context_bytes"] < info["bytes"]

    def test_context_carries_no_derived_state(self, simulator):
        """The pickled context holds neither the models' forward caches
        nor the tiles' aged-bounds caches, although the live simulator has both."""
        payload = self._mid_run_payload(simulator)
        assert _forward_caches(simulator.network) and _tile_caches(simulator.network)
        context = cloudpickle.loads(base64.b64decode(payload["context_pickle"]))
        assert _forward_caches(context.network) == []
        assert _tile_caches(context.network) == []

    def test_snapshot_with_cached_context_resumes(
        self, simulator, tmp_path, monkeypatch
    ):
        """A snapshot whose context still pickles every cache (the format
        written before layers and crossbars dropped them) resumes to the
        uninterrupted run's result."""
        monkeypatch.delattr(Layer, "__getstate__")
        monkeypatch.delattr(Crossbar, "__getstate__")
        full = simulator.run("t+t", checkpoint_every=1, checkpoint_dir=tmp_path)
        monkeypatch.undo()
        paths = [e.path for e in CheckpointManager(tmp_path).entries()]
        assert len(paths) == len(full.windows)
        for path in paths:
            context = cloudpickle.loads(
                base64.b64decode(load_checkpoint(path)["context_pickle"])
            )
            assert _forward_caches(context.network)
            assert _tile_caches(context.network)
            assert LifetimeSimulator.resume(path).run().to_dict() == full.to_dict()

    def test_incompatible_context_pickle_raises_checkpoint_error(
        self, simulator, tmp_path, capsys
    ):
        """A snapshot whose context pickle names a class this build no
        longer has (here the removed ``repro.core.backend``) fails to
        resume as a CheckpointError, while inspect still reads it."""
        from repro.cli import main

        payload = self._mid_run_payload(simulator)
        stale = b"crepro.core.backend\nDeviceArrayCache\n."  # protocol-0 global
        payload["context_pickle"] = base64.b64encode(stale).decode("ascii")
        path = save_checkpoint(payload, tmp_path / f"t+t{CHECKPOINT_SUFFIX}")
        assert inspect_checkpoint(path)["next_window"] == 4
        assert main(["checkpoints", "inspect", str(path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["tiles"] == payload["meta"]["tiles"] > 0
        with pytest.raises(CheckpointError, match="incompatible with this build"):
            LifetimeSimulator.resume(path)


def _forward_caches(network):
    """``(model, layer, name)`` of every filled forward cache."""
    return [
        (which, i, name)
        for which, model in (("model", network.model), ("scratch", network._scratch))
        for i, layer in enumerate(model.layers)
        for name in layer._transient
        if getattr(layer, name, None) is not None
    ]


def _tiles(network):
    """``(layer_index, tile)`` of every crossbar tile, in mapping order."""
    return [
        (mapped.layer_index, tile)
        for mapped in network.layers
        for _, _, tile in mapped.tiles.iter_tiles()
    ]


_TILE_CACHES = ("_bounds_cache", "_dead_cache")


def _tile_caches(network):
    """``(layer, cache)`` of every filled crossbar aged-bounds cache."""
    return [
        (index, cache)
        for index, tile in _tiles(network)
        for cache in _TILE_CACHES
        if getattr(tile, cache) is not None
    ]


def _tile_states(network):
    """Comparable device state of every tile: arrays, counters, knobs, RNG."""
    return [
        (
            index,
            [
                getattr(tile, name).tobytes()
                for name in (
                    "resistance",
                    "stress_time",
                    "pulse_counts",
                    "r_fresh_min",
                    "r_fresh_max",
                )
            ],
            tile.state_version,
            tile.read_noise_extra,
            tile.pulse_miss_rate,
            tile._rng.bit_generator.state,
        )
        for index, tile in _tiles(network)
    ]


class TestManager:
    PAYLOAD = {"meta": {}, "result": {}}

    def test_filenames_and_sanitization(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        assert manager.path_for("st+at-r0", 7).name == f"st+at-r0-w00007{CHECKPOINT_SUFFIX}"
        assert "/" not in manager.path_for("a/b c", 1).stem

    @pytest.mark.parametrize(
        "name, expected",
        [
            (f"st+at-r0-w00007{CHECKPOINT_SUFFIX}", ("st+at-r0", 7)),
            ("dir/a-w-b-w00012.ckpt.json", ("a-w-b", 12)),
            ("t+t-r0-w00003", ("t+t-r0", 3)),
            (f"malformed{CHECKPOINT_SUFFIX}", ("malformed", None)),
            (f"run-wx{CHECKPOINT_SUFFIX}", ("run-wx", None)),
        ],
    )
    def test_split_snapshot_name(self, name, expected):
        assert split_snapshot_name(name) == expected

    def test_split_inverts_path_for(self, tmp_path):
        path = CheckpointManager(tmp_path).path_for("lenet-st+t", 42)
        assert split_snapshot_name(path) == ("lenet-st+t", 42)

    def test_entries_and_latest(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        for window in (4, 2, 6):
            manager.save(self.PAYLOAD, run_id="t+t-r0", window=window)
        manager.save(self.PAYLOAD, run_id="st+at-r0", window=3)
        (tmp_path / "notes.txt").write_text("ignored")
        (tmp_path / f"malformed{CHECKPOINT_SUFFIX}").write_text("{}")
        entries = manager.entries()
        assert [(e.run_id, e.window) for e in entries] == [
            ("st+at-r0", 3),
            ("t+t-r0", 2),
            ("t+t-r0", 4),
            ("t+t-r0", 6),
        ]
        assert manager.latest().name == f"t+t-r0-w00006{CHECKPOINT_SUFFIX}"
        assert manager.latest(run_id="st+at-r0").name == (
            f"st+at-r0-w00003{CHECKPOINT_SUFFIX}"
        )
        assert manager.latest(run_id="unknown") is None

    @pytest.mark.parametrize("keep", [3, 4, 5, 9], ids=["n", "n+1", "2n-1", "2n+3"])
    def test_gc_never_deletes_when_keep_covers_the_run(self, tmp_path, keep):
        manager = CheckpointManager(tmp_path)
        for window in (1, 2, 3):
            manager.save(self.PAYLOAD, run_id="a", window=window)
        assert manager.gc(keep=keep) == []
        assert len(manager.entries()) == 3

    def test_gc_keeps_newest_per_run(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        for window in (1, 2, 3):
            manager.save(self.PAYLOAD, run_id="a", window=window)
        manager.save(self.PAYLOAD, run_id="b", window=1)
        removed = manager.gc(keep=2)
        assert [p.name for p in removed] == [f"a-w00001{CHECKPOINT_SUFFIX}"]
        assert len(manager.entries()) == 3

    def test_gc_scoped_to_run(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(self.PAYLOAD, run_id="a", window=1)
        manager.save(self.PAYLOAD, run_id="b", window=1)
        removed = manager.gc(keep=0, run_id="a")
        assert [p.name for p in removed] == [f"a-w00001{CHECKPOINT_SUFFIX}"]
        assert [e.run_id for e in manager.entries()] == ["b"]

    def test_gc_negative_keep_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CheckpointManager(tmp_path).gc(keep=-1)


class TestJournal:
    def test_record_and_replay(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.record("k1", {"x": 1})
        journal.record("k2", {"x": 2})
        journal.record("k1", {"x": 999})  # idempotent: first write wins
        assert len(path.read_text().splitlines()) == 2
        relaunch = RunJournal(path)
        assert len(relaunch) == 2
        assert "k1" in relaunch and relaunch.get("k1") == {"x": 1}
        assert relaunch.dropped_lines == 0

    def test_corrupt_tail_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.record("k1", {"x": 1})
        journal.record("k2", {"x": 2})
        # Simulate a crash mid-append: truncate inside the last line.
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        relaunch = RunJournal(path)
        assert relaunch.dropped_lines == 1
        assert "k1" in relaunch and "k2" not in relaunch

    def test_tampered_line_dropped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.record("k1", {"x": 1})
        line = json.loads(path.read_text())
        line["payload"] = {"x": 42}  # digest no longer matches
        path.write_text(json.dumps(line) + "\n")
        relaunch = RunJournal(path)
        assert relaunch.dropped_lines == 1
        assert "k1" not in relaunch

    def test_unknown_schema_line_dropped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.record("k1", {"x": 1})
        line = json.loads(path.read_text())
        line["schema"] = 99
        path.write_text(json.dumps(line) + "\n")
        assert len(RunJournal(path)) == 0

    def test_append_after_torn_tail_starts_fresh_line(self, tmp_path):
        """Regression: welding a record onto a newline-less torn tail
        would corrupt the new record too."""
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.record("k1", {"x": 1})
        journal.record("k2", {"x": 2})
        path.write_bytes(path.read_bytes()[:-9])  # tear the k2 line
        relaunch = RunJournal(path)
        relaunch.record("k2", {"x": 2})
        final = RunJournal(path)
        assert sorted(final.entries) == ["k1", "k2"]
        assert final.dropped_lines == 1  # the torn line, nothing else

    def test_appends_survive_alongside_replay(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunJournal(path).record("k1", {"x": 1})
        relaunch = RunJournal(path)
        relaunch.record("k2", {"x": 2})
        third = RunJournal(path)
        assert sorted(third.entries) == ["k1", "k2"]


def _three_line_journal(path):
    journal = RunJournal(path)
    for i in range(3):
        journal.record(f"k{i}", {"x": i})
    return path.read_bytes().splitlines(keepends=True)


def _rewrite_line(line: bytes, mutate) -> bytes:
    doc = json.loads(line)
    return mutate(doc) + b"\n"


def _dumps(doc) -> bytes:
    return json.dumps(doc).encode()


_CORRUPTIONS = {
    "not-json": lambda doc: b"{this is not json",
    "json-array": lambda doc: _dumps([doc["key"], doc["payload"]]),
    "missing-key": lambda doc: _dumps({k: v for k, v in doc.items() if k != "key"}),
    "missing-payload": lambda doc: _dumps(
        {k: v for k, v in doc.items() if k != "payload"}
    ),
    "missing-digest": lambda doc: _dumps(
        {k: v for k, v in doc.items() if k != "sha256"}
    ),
    "wrong-schema": lambda doc: _dumps({**doc, "schema": 2}),
    "tampered-payload": lambda doc: _dumps({**doc, "payload": {"x": 99}}),
    "renamed-key": lambda doc: _dumps({**doc, "key": "k9"}),
}


class TestJournalCorruption:
    """Whatever a bad line looks like, it costs that line and no other."""

    @pytest.mark.parametrize("kind", sorted(_CORRUPTIONS))
    def test_bad_middle_line_dropped_neighbours_kept(self, tmp_path, kind):
        path = tmp_path / "run.jsonl"
        lines = _three_line_journal(path)
        lines[1] = _rewrite_line(lines[1], _CORRUPTIONS[kind])
        path.write_bytes(b"".join(lines))
        relaunch = RunJournal(path)
        assert sorted(relaunch.entries) == ["k0", "k2"]
        assert relaunch.dropped_lines == 1

    @pytest.mark.parametrize("cut", [1, 2, 17, 0.5, -2, -1])
    def test_tail_torn_at_any_byte(self, tmp_path, cut):
        path = tmp_path / "run.jsonl"
        lines = _three_line_journal(path)
        last = lines[-1]
        keep = int(len(last) * cut) if isinstance(cut, float) else cut % len(last)
        path.write_bytes(b"".join(lines[:-1]) + last[:keep])
        relaunch = RunJournal(path)
        assert sorted(relaunch.entries) == ["k0", "k1"]
        assert relaunch.dropped_lines == 1
        # Re-executing the lost point lands it intact after the torn bytes.
        relaunch.record("k2", {"x": 2})
        final = RunJournal(path)
        assert final.get("k2") == {"x": 2}
        assert sorted(final.entries) == ["k0", "k1", "k2"]

    @pytest.mark.parametrize(
        "where, message",
        [("middle", "dropping corrupt line 2"), ("tail", "dropping truncated tail")],
    )
    def test_dropped_line_is_logged(self, tmp_path, caplog, where, message):
        path = tmp_path / "run.jsonl"
        lines = _three_line_journal(path)
        if where == "middle":
            lines[1] = b"{this is not json\n"
        else:
            lines[2] = lines[2][:-5]
        path.write_bytes(b"".join(lines))
        with caplog.at_level("WARNING"):
            assert RunJournal(path).dropped_lines == 1
        assert [r.getMessage() for r in caplog.records if message in r.getMessage()]

    def test_opening_never_rewrites_the_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        lines = _three_line_journal(path)
        raw = lines[0] + b"{this is not json\n" + lines[2][:-5]
        path.write_bytes(raw)
        for _ in range(2):
            assert sorted(RunJournal(path).entries) == ["k0"]
        assert path.read_bytes() == raw

    def test_blank_lines_are_not_corruption(self, tmp_path):
        path = tmp_path / "run.jsonl"
        lines = _three_line_journal(path)
        path.write_bytes(b"\n".join(lines) + b"\n  \n")
        relaunch = RunJournal(path)
        assert len(relaunch) == 3 and relaunch.dropped_lines == 0

    def test_duplicate_key_lines_keep_the_first(self, tmp_path):
        path = tmp_path / "run.jsonl"
        lines = _three_line_journal(path)
        other = RunJournal(tmp_path / "other.jsonl")
        other.record("k0", {"x": "late"})
        path.write_bytes(b"".join(lines) + other.path.read_bytes())
        relaunch = RunJournal(path)
        assert relaunch.get("k0") == {"x": 0}
        assert len(relaunch) == 3 and relaunch.dropped_lines == 0


class TestJournalRecords:
    @pytest.mark.parametrize(
        "payload",
        [None, 0.1 + 0.2, "µΩ", [1, [2, None]], {"z": 1, "a": {"y": [0.5]}}],
        ids=["none", "float", "unicode", "nested-list", "unsorted-dict"],
    )
    def test_payload_survives_a_relaunch_exactly(self, tmp_path, payload):
        path = tmp_path / "run.jsonl"
        RunJournal(path).record("k", payload)
        relaunch = RunJournal(path)
        assert "k" in relaunch
        assert relaunch.get("k") == payload
        assert relaunch.dropped_lines == 0

    def test_lines_are_canonical_and_self_verifying(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunJournal(path).record("k", {"b": 1, "a": 2})
        doc = json.loads(path.read_text())
        assert doc["schema"] == 1 and doc["key"] == "k"
        blob = json.dumps(
            ["k", {"a": 2, "b": 1}], sort_keys=True, separators=(",", ":")
        )
        assert doc["sha256"] == hashlib.sha256(blob.encode()).hexdigest()
        assert path.read_text() == json.dumps(
            doc, sort_keys=True, separators=(",", ":")
        ) + "\n"

    def test_lock_file_sits_beside_the_journal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunJournal(path).record("k", 1)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "run.jsonl",
            "run.jsonl.lock",
        ]

    def test_creates_missing_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "run.jsonl"
        journal = RunJournal(path)
        assert len(journal) == 0 and path.parent.is_dir()
        journal.record("k", 1)
        assert RunJournal(path).get("k") == 1

    def test_every_record_is_fsynced(self, tmp_path, monkeypatch):
        import os

        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))
        journal = RunJournal(tmp_path / "run.jsonl")
        journal.record("k1", 1)
        journal.record("k2", 2)
        journal.record("k1", 3)  # already journaled: no write, no sync
        assert len(synced) == 2

    def test_refresh_counts_only_new_keys(self, tmp_path):
        path = tmp_path / "run.jsonl"
        mine = RunJournal(path)
        mine.record("k0", 0)
        sibling = RunJournal(path)
        sibling.record("k1", 1)
        sibling.record("k2", 2)
        assert mine.refresh() == 2
        assert mine.refresh() == 0
        assert sorted(mine.entries) == ["k0", "k1", "k2"]


class TestJournalSharing:
    """Two journal handles on one file: two campaigns draining one grid."""

    def test_refresh_picks_up_sibling_appends(self, tmp_path):
        path = tmp_path / "run.jsonl"
        mine = RunJournal(path)
        sibling = RunJournal(path)
        sibling.record("k1", {"x": 1})
        assert "k1" not in mine
        assert mine.refresh() == 1
        assert mine.get("k1") == {"x": 1}
        assert mine.refresh() == 0  # incremental: nothing new to read

    def test_racing_writers_record_each_key_once(self, tmp_path):
        path = tmp_path / "run.jsonl"
        a = RunJournal(path)
        b = RunJournal(path)
        a.record("k", {"x": 1})
        b.record("k", {"x": 2})  # loser rescans under the lock, backs off
        assert len(path.read_text().splitlines()) == 1
        assert RunJournal(path).get("k") == {"x": 1}

    def test_refresh_does_not_count_in_flight_append_as_dropped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        mine = RunJournal(path)
        mine.record("k1", {"x": 1})
        # A sibling is mid-append: the file ends without a newline.
        with open(path, "ab") as handle:
            handle.write(b'{"partial')
        assert mine.refresh() == 0
        assert mine.dropped_lines == 0
        # The sibling finishes its line; refresh now consumes it whole.
        sibling = RunJournal(path)
        sibling.record("k2", {"x": 2})
        assert mine.refresh() >= 1
        assert "k2" in mine

    def test_torn_tail_completed_by_live_writer_uncounts_drop(self, tmp_path):
        """A load-time 'torn tail' that turns out to be a live writer's
        in-flight append must not stay counted as a dropped line."""
        path = tmp_path / "run.jsonl"
        writer = RunJournal(path)
        writer.record("k1", {"x": 1})
        first = path.read_bytes()
        writer.record("k2", {"x": 2})
        second_line = path.read_bytes()[len(first):]
        # Reader attaches while the second line is half-written...
        path.write_bytes(first + second_line[:20])
        reader = RunJournal(path)
        assert reader.dropped_lines == 1  # provisionally torn
        # ...then the writer's append completes.
        path.write_bytes(first + second_line)
        reader.refresh()
        assert "k2" in reader
        assert reader.dropped_lines == 0  # provisional drop rolled back

    def test_concurrent_processes_append_exactly_once(self, tmp_path):
        """Hammer one journal file from 4 processes; every key must land
        exactly once and every line must verify."""
        import multiprocessing

        path = tmp_path / "run.jsonl"
        keys = [f"k{i}" for i in range(12)]
        procs = [
            multiprocessing.Process(target=_journal_hammer, args=(path, keys, w))
            for w in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        final = RunJournal(path)
        assert sorted(final.entries) == sorted(keys)
        assert final.dropped_lines == 0
        assert len(path.read_text().splitlines()) == len(keys)


def _journal_hammer(path, keys, worker: int) -> None:
    journal = RunJournal(path)
    order = keys if worker % 2 == 0 else list(reversed(keys))
    for key in order:
        journal.refresh()
        journal.record(key, {"key": key, "value": len(key)})
