"""Unit tests for persistence (weights, results, comparisons) and the
atomic-write and file-lock helpers the checkpoints and the journal rely on."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro

from repro.core.results import LifetimeResult, ScenarioComparison, WindowRecord
from repro.exceptions import ConfigurationError, ShapeError
from repro.io import (
    file_lock,
    load_comparison,
    load_json,
    load_result,
    load_weights,
    save_comparison,
    save_result,
    save_text_atomic,
    save_weights,
)
from repro.nn import Activation, Dense, Sequential


def make_result() -> LifetimeResult:
    result = LifetimeResult(
        scenario_key="st+at",
        lifetime_applications=120_000,
        failed=True,
        software_accuracy=0.91,
        target_accuracy=0.85,
    )
    result.windows.append(
        WindowRecord(
            window_index=0,
            applications_total=10_000,
            tuning_iterations=12,
            converged=True,
            accuracy_after=0.9,
            pulses_total=400,
            dead_fraction=0.01,
            aged_upper_by_layer={0: 99_000.0, 2: 98_500.0},
        )
    )
    return result


class TestWeights:
    def test_round_trip(self, tmp_path, trained_mlp, blob_dataset):
        path = tmp_path / "weights.npz"
        save_weights(trained_mlp, path)
        fresh = Sequential(
            [Dense(16), Activation("relu"), Dense(3)], seed=99
        ).build((4,))
        assert not np.allclose(
            fresh.layers[0].params["W"], trained_mlp.layers[0].params["W"]
        )
        load_weights(fresh, path)
        np.testing.assert_array_equal(
            fresh.layers[0].params["W"], trained_mlp.layers[0].params["W"]
        )
        assert fresh.score(blob_dataset.x_test, blob_dataset.y_test) == pytest.approx(
            trained_mlp.score(blob_dataset.x_test, blob_dataset.y_test)
        )

    def test_missing_key_rejected(self, tmp_path, trained_mlp):
        path = tmp_path / "weights.npz"
        save_weights(trained_mlp, path)
        bigger = Sequential(
            [Dense(16), Activation("relu"), Dense(3), Dense(2)], seed=1
        ).build((4,))
        with pytest.raises(ConfigurationError):
            load_weights(bigger, path)


class TestResults:
    def test_dict_round_trip(self):
        result = make_result()
        back = LifetimeResult.from_dict(result.to_dict())
        assert back.scenario_key == result.scenario_key
        assert back.lifetime_applications == result.lifetime_applications
        assert back.windows[0].aged_upper_by_layer == {0: 99_000.0, 2: 98_500.0}

    def test_file_round_trip(self, tmp_path):
        result = make_result()
        path = tmp_path / "result.json"
        save_result(result, path)
        back = load_result(path)
        assert back.iteration_trace() == result.iteration_trace()
        assert back.failed is True

    def test_comparison_round_trip(self, tmp_path):
        comparison = ScenarioComparison(workload="glyphs")
        comparison.add(make_result())
        path = tmp_path / "cmp.json"
        save_comparison(comparison, path)
        back = load_comparison(path)
        assert back.workload == "glyphs"
        assert set(back.results) == {"st+at"}
        assert back.results["st+at"].lifetime_applications == 120_000

    def test_comparison_keeps_its_baseline_key(self, tmp_path):
        comparison = ScenarioComparison(workload="glyphs", baseline_key="st+t")
        comparison.add(make_result())
        path = tmp_path / "cmp.json"
        save_comparison(comparison, path)
        assert load_comparison(path).baseline_key == "st+t"


class TestWeightShapes:
    def test_shape_mismatch_rejected(self, tmp_path, trained_mlp):
        path = tmp_path / "weights.npz"
        save_weights(trained_mlp, path)
        wider = Sequential(
            [Dense(32), Activation("relu"), Dense(3)], seed=1
        ).build((4,))
        with pytest.raises(ShapeError, match="layer0.W"):
            load_weights(wider, path)

    def test_load_fills_the_given_model(self, tmp_path, trained_mlp):
        path = tmp_path / "weights.npz"
        save_weights(trained_mlp, path)
        fresh = Sequential(
            [Dense(16), Activation("relu"), Dense(3)], seed=99
        ).build((4,))
        assert load_weights(fresh, path) is fresh


PAYLOAD = {"b": [1, 2.5, None], "a": {"unicode": "µΩ", "exact": 0.1 + 0.2}}


class TestAtomicText:
    def test_round_trip_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "entry.json"
        save_text_atomic(json.dumps(PAYLOAD), path)
        assert load_json(path) == PAYLOAD
        assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]

    def test_replaces_an_existing_file(self, tmp_path):
        path = tmp_path / "entry.json"
        save_text_atomic('{"v": 1}', path)
        save_text_atomic('{"v": 2}', path)
        assert load_json(path) == {"v": 2}

    def test_failed_rename_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "entry.json"
        save_text_atomic('{"v": 1}', path)

        def crash(src, dst):
            raise OSError("killed before the rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError):
            save_text_atomic('{"v": 2}', path)
        assert load_json(path) == {"v": 1}

    def test_write_syncs_file_and_directory(self, tmp_path, monkeypatch):
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd) or real_fsync(fd))
        save_text_atomic("payload", tmp_path / "entry.txt")
        assert len(calls) == 2
        assert (tmp_path / "entry.txt").read_text() == "payload"

    def test_load_json_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_json(tmp_path / "absent.json")

    def test_load_json_torn_file_raises(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text(json.dumps(PAYLOAD)[:-7])
        with pytest.raises(json.JSONDecodeError):
            load_json(path)


_HOLDER = textwrap.dedent(
    """
    import sys
    from repro.io import file_lock

    with file_lock(sys.argv[1]):
        print("held", flush=True)
        sys.stdin.read()
    """
)


@pytest.fixture()
def lock_holder(tmp_path):
    """A child process that holds ``file_lock`` until its stdin closes."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    path = tmp_path / "sub" / "journal.lock"
    proc = subprocess.Popen(
        [sys.executable, "-c", _HOLDER, str(path)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        assert proc.stdout.readline().strip() == "held"
        yield proc, path
    finally:
        proc.kill()
        proc.wait(timeout=30)


def _lock_is_free(path) -> bool:
    import fcntl

    fd = os.open(path, os.O_RDWR)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        return False
    finally:
        os.close(fd)
    return True


@pytest.mark.skipif(sys.platform == "win32", reason="flock is POSIX-only")
class TestFileLock:
    def test_creates_the_lock_file_and_its_directory(self, tmp_path):
        path = tmp_path / "a" / "b" / "journal.lock"
        with file_lock(path):
            assert path.exists()
        assert _lock_is_free(path)

    def test_released_when_the_body_raises(self, tmp_path):
        path = tmp_path / "journal.lock"
        with pytest.raises(RuntimeError):
            with file_lock(path):
                raise RuntimeError("body failed")
        assert _lock_is_free(path)

    def test_excludes_another_process_until_it_releases(self, lock_holder):
        proc, path = lock_holder
        assert not _lock_is_free(path)
        proc.stdin.close()
        assert proc.wait(timeout=30) == 0
        with file_lock(path):
            pass

    def test_killed_holder_cannot_wedge_the_lock(self, lock_holder):
        proc, path = lock_holder
        assert not _lock_is_free(path)
        proc.kill()
        proc.wait(timeout=30)
        assert _lock_is_free(path)
