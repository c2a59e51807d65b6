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
    _decode_array,
    _encode_array,
    capture_simulator,
    inspect_checkpoint,
    load_checkpoint,
    restore_rng,
    restore_simulator,
    rng_state,
    save_checkpoint,
)
from repro.core.lifetime import LifetimeConfig, LifetimeSimulator
from repro.crossbar import Crossbar
from repro.exceptions import CheckpointError, ConfigurationError
from repro.io import save_json_atomic
from repro.mapping import MappedNetwork
from repro.nn.layers import Layer
from repro.tuning import TuningConfig


@pytest.fixture()
def simulator(trained_mlp, device_config, blob_dataset):
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
    )


class TestArrayCodec:
    @pytest.mark.parametrize("dtype", ["float64", "float32", "int64", "bool"])
    def test_bit_exact_roundtrip(self, dtype, rng):
        arr = (rng.standard_normal((5, 7)) * 100).astype(dtype)
        out = _decode_array(_encode_array(arr))
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        assert np.array_equal(out, arr)

    def test_non_contiguous_input(self, rng):
        arr = rng.standard_normal((8, 8))[::2, 1::3]
        assert np.array_equal(_decode_array(_encode_array(arr)), arr)

    def test_special_floats_survive(self):
        arr = np.array([np.nan, np.inf, -np.inf, -0.0, 1e-308])
        out = _decode_array(_encode_array(arr))
        assert out.tobytes() == arr.tobytes()

    def test_decoded_array_is_writable(self, rng):
        out = _decode_array(_encode_array(rng.standard_normal(4)))
        out[0] = 1.0  # np.frombuffer alone would be read-only


class TestRngState:
    def test_exact_stream_position(self):
        gen = np.random.default_rng(7)
        gen.standard_normal(13)  # advance mid-stream
        state = rng_state(gen)
        expected = gen.standard_normal(50)
        clone = np.random.default_rng(0)
        restore_rng(clone, state)
        assert np.array_equal(clone.standard_normal(50), expected)

    def test_state_is_json_serializable(self):
        state = rng_state(np.random.default_rng(3))
        assert json.loads(json.dumps(state)) == state

    def test_bit_generator_mismatch_rejected(self):
        state = rng_state(np.random.default_rng(3))
        other = np.random.Generator(np.random.MT19937(3))
        with pytest.raises(CheckpointError, match="bit-generator mismatch"):
            restore_rng(other, state)


class TestSnapshotFile:
    PAYLOAD = {"meta": {"scenario_key": "t+t"}, "layers": [], "n": 3}

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
        save_json_atomic(document, path, durable=True)
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
        before = rng_state(simulator.tuner._rng)
        capture_simulator(simulator, result, 4, 4000)
        assert rng_state(simulator.tuner._rng) == before

    def test_roundtrip_restores_exact_state(self, simulator, tmp_path):
        payload = self._mid_run_payload(simulator)
        path = save_checkpoint(payload, tmp_path / f"t+t{CHECKPOINT_SUFFIX}")
        restored, result, next_window, applications = restore_simulator(
            load_checkpoint(path)
        )
        assert next_window == len(result.windows)
        assert applications == result.lifetime_applications
        for original, clone in zip(restored.network.layers, simulator.network.layers):
            for (_, arm_a), (_, arm_b) in zip(
                # capture/restore iterate arms in this same order
                _layer_arms_pair(original),
                _layer_arms_pair(clone),
            ):
                for (_, _, ta), (_, _, tb) in zip(arm_a.iter_tiles(), arm_b.iter_tiles()):
                    assert np.array_equal(ta.resistance, tb.resistance)
                    assert np.array_equal(ta.stress_time, tb.stress_time)
                    assert np.array_equal(ta.pulse_counts, tb.pulse_counts)
                    assert ta.state_version == tb.state_version
                    assert rng_state(ta._rng) == rng_state(tb._rng)
        assert rng_state(restored.tuner._rng) == rng_state(simulator.tuner._rng)

    def test_missing_layer_rejected(self, simulator):
        payload = self._mid_run_payload(simulator)
        payload["layers"][0]["layer_index"] = 99
        with pytest.raises(CheckpointError, match="missing from the restored network"):
            restore_simulator(payload)

    def test_tile_shape_mismatch_rejected(self, simulator):
        payload = self._mid_run_payload(simulator)
        tile_doc = payload["layers"][0]["arms"][0]["tiles"][0]
        tile_doc["resistance"]["shape"] = [1, 1]
        with pytest.raises(CheckpointError, match="tile shape mismatch"):
            restore_simulator(payload)

    def test_fault_stream_without_schedule_rejected(self, simulator):
        payload = self._mid_run_payload(simulator)
        payload["rng"]["fault"] = payload["rng"]["tuner"]
        with pytest.raises(CheckpointError, match="no fault schedule"):
            restore_simulator(payload)

    def test_inspect_summary(self, simulator, tmp_path):
        payload = self._mid_run_payload(simulator)
        path = save_checkpoint(payload, tmp_path / f"t+t{CHECKPOINT_SUFFIX}")
        info = inspect_checkpoint(path)
        assert info["scenario_key"] == "t+t"
        assert info["next_window"] == 4
        assert info["windows_recorded"] == 4
        assert info["schema"] == CHECKPOINT_SCHEMA
        assert info["layers"] == len(simulator.network.layers)
        assert info["tiles"] >= info["layers"]
        assert info["devices"] > 0
        assert info["bytes"] == path.stat().st_size
        assert info["context_bytes"] == len(
            base64.b64decode(payload["context_pickle"])
        )
        assert info["state_bytes"] == len(
            json.dumps(payload["layers"], sort_keys=True, separators=(",", ":"))
        )
        assert info["context_bytes"] + info["state_bytes"] < info["bytes"]

    def test_context_carries_no_derived_state(self, simulator):
        """The pickled context holds neither the models' forward caches
        nor the tiles' read caches, although the live simulator has both."""
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
        self, simulator, tmp_path
    ):
        """A snapshot whose context pickle names a class this build no
        longer has (here the removed ``repro.core.backend``) fails to
        resume as a CheckpointError, while inspect still reads it."""
        payload = self._mid_run_payload(simulator)
        stale = b"crepro.core.backend\nDeviceArrayCache\n."  # protocol-0 global
        payload["context_pickle"] = base64.b64encode(stale).decode("ascii")
        path = save_checkpoint(payload, tmp_path / f"t+t{CHECKPOINT_SUFFIX}")
        assert inspect_checkpoint(path)["next_window"] == 4
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


def _tile_caches(network):
    """``(layer, arm, cache)`` of every filled crossbar read cache."""
    out = []
    for mapped in network.layers:
        for name, arm in _layer_arms_pair(mapped):
            for _, _, tile in arm.iter_tiles():
                filled = [
                    cache
                    for cache in ("_conductance_cache", "_bounds_cache", "_dead_cache")
                    if getattr(tile, cache) is not None
                ]
                out += [(mapped.layer_index, name, cache) for cache in filled]
    return out


def _layer_arms_pair(mapped):
    from repro.core.checkpoint import _layer_arms

    return _layer_arms(mapped)


class TestManager:
    PAYLOAD = {"meta": {}, "layers": []}

    def test_filenames_and_sanitization(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        assert manager.path_for("st+at-r0", 7).name == f"st+at-r0-w00007{CHECKPOINT_SUFFIX}"
        assert "/" not in manager.path_for("a/b c", 1).stem

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

    def test_fresh_start_truncates(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunJournal(path).record("k1", {"x": 1})
        assert len(RunJournal(path, resume=False)) == 0
        assert not path.exists() or path.read_text() == ""

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
        journal = RunJournal(path, resume=False)
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
