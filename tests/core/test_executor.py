"""The execution engine's contract: parallel == serial, bit for bit.

Every grid of lifetime runs (``compare``, ``run_scenario_repeats``, a
fault campaign, ``repro run``) goes through
``AgingAwareFramework.run_tasks``; it and ``Sweep.run`` are pinned
against a serial reference — a direct ``run_scenario`` loop for the
framework grids — with identical ``LifetimeResult``/``SweepResult``
fields, not approximately equal ones.  Also covered: the journal key
``scenario_task`` builds, replay from the run journal (exact round
trip, training only the styles an unstored run needs) and failure
surfacing (a crashing worker produces a failed point, never a hung
pool).
"""

import dataclasses
import json
import os
import time

import numpy as np
import pytest

from repro.core import (
    AgingAwareFramework,
    FrameworkConfig,
    LifetimeConfig,
    ParallelExecutor,
    RunJournal,
    Sweep,
    Task,
    fingerprint,
)
from repro.data import make_blobs
from repro.device import DeviceConfig
from repro.exceptions import ConfigurationError
from repro.training import SkewedTrainingConfig, TrainConfig, build_mlp
from repro.tuning import TuningConfig


def _make_framework():
    """A fresh, fast framework (fixed seed) — one per equivalence arm."""
    data = make_blobs(n_samples=200, n_classes=3, n_features=4, spread=0.4, seed=3)
    config = FrameworkConfig(
        device=DeviceConfig(pulses_to_collapse=100, write_noise=0.05),
        train=TrainConfig(epochs=8),
        skewed=SkewedTrainingConfig(
            beta_scale=-1.0,
            lambda1=0.05,
            lambda2=1e-3,
            pretrain=TrainConfig(epochs=8),
            skew_epochs=4,
        ),
        lifetime=LifetimeConfig(
            apps_per_window=1000,
            max_windows=3,
            tuning=TuningConfig(max_iterations=20),
        ),
        tune_samples=64,
        target_fraction=0.9,
    )
    return AgingAwareFramework(
        lambda seed: build_mlp(4, 3, hidden=(12,), seed=seed), data, config, seed=7
    )


@pytest.fixture(scope="module")
def framework():
    return _make_framework()


# -- fingerprinting -----------------------------------------------------------
class TestFingerprint:
    def test_deterministic(self):
        assert fingerprint(1, "a", 2.5) == fingerprint(1, "a", 2.5)

    def test_discriminates(self):
        assert fingerprint(1) != fingerprint(2)
        assert fingerprint("1") != fingerprint(1)
        assert fingerprint(1.0) != fingerprint(1)

    def test_arrays_by_content(self):
        a = np.arange(6, dtype=np.float64)
        assert fingerprint(a) == fingerprint(a.copy())
        assert fingerprint(a) != fingerprint(a.reshape(2, 3))
        assert fingerprint(a) != fingerprint(a.astype(np.float32))

    def test_dataclasses_by_fields(self):
        a = DeviceConfig(pulses_to_collapse=100)
        b = DeviceConfig(pulses_to_collapse=100)
        c = DeviceConfig(pulses_to_collapse=200)
        assert fingerprint(a) == fingerprint(b)
        assert fingerprint(a) != fingerprint(c)

    def test_dict_order_insensitive(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_unserializable_callable_keyed_by_name(self):
        """A callable the serializer refuses still gets a stable key."""
        import threading

        lock = threading.Lock()

        def holds_lock():
            return lock

        from repro.core.executor import _canonical

        assert _canonical(holds_lock) == {"__callable__": holds_lock.__qualname__}
        assert fingerprint(holds_lock) == fingerprint(holds_lock)

    def test_other_objects_keyed_by_repr(self):
        import pathlib

        assert fingerprint(pathlib.PurePosixPath("a")) == fingerprint(
            pathlib.PurePosixPath("a")
        )
        assert fingerprint(pathlib.PurePosixPath("a")) != fingerprint(
            pathlib.PurePosixPath("b")
        )


# -- generic executor ---------------------------------------------------------
def _square(x):
    return x * x


def _maybe_boom(x):
    if x == 2:
        raise RuntimeError("boom")
    return x


def _die(x):
    os._exit(3)  # simulate a hard worker crash (segfault/OOM-kill)


def _sleep(seconds):
    time.sleep(seconds)
    return seconds


def _count(n):
    from repro.core import PROFILER

    PROFILER.increment("test.executor.count", n)
    return n


class _LockedError(Exception):
    """An exception that cannot be serialized back from a worker."""

    def __init__(self):
        import threading

        super().__init__("locked")
        self.lock = threading.Lock()


def _raise_locked():
    raise _LockedError()


class TestTaskChunk:
    """The worker-side trampoline, run in-process."""

    def _run(self, tasks):
        from repro.core.executor import _run_task_chunk, _serializer

        return _serializer.loads(_run_task_chunk(_serializer.dumps(tasks)))

    def test_each_task_fails_on_its_own(self):
        results = self._run([(_square, (3,), {}), (_maybe_boom, (2,), {}), (_square, (4,), {})])
        assert [r[0] for r in results] == [9, None, 16]
        assert [type(r[1]) for r in results] == [type(None), RuntimeError, type(None)]
        assert str(results[1][1]) == "boom"
        assert "RuntimeError: boom" in results[1][2]

    def test_unserializable_exception_becomes_runtime_error(self):
        (value, exc, text, _seconds, _perf), = self._run([(_raise_locked, (), {})])
        assert value is None
        assert type(exc) is RuntimeError
        assert "unserializable task exception" in str(exc) and "locked" in str(exc)
        assert "_LockedError" in text


class TestParallelExecutor:
    def test_rejects_negative_workers(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(workers=-1)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_results_in_task_order(self, workers):
        tasks = [Task(key=str(i), fn=_square, args=(i,)) for i in range(6)]
        outcomes = ParallelExecutor(workers=workers).run(tasks)
        assert [o.value for o in outcomes] == [i * i for i in range(6)]
        assert all(o.ok for o in outcomes)

    def test_closures_cross_the_process_boundary(self):
        offset = 10  # captured by the lambda: needs cloudpickle transport
        tasks = [Task(key=str(i), fn=lambda i=i: i + offset) for i in range(3)]
        outcomes = ParallelExecutor(workers=2).run(tasks)
        assert [o.value for o in outcomes] == [10, 11, 12]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_error_isolation(self, workers):
        tasks = [Task(key=str(i), fn=_maybe_boom, args=(i,)) for i in (1, 2, 3)]
        outcomes = ParallelExecutor(workers=workers).run(tasks)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert "boom" in outcomes[1].error
        assert [outcomes[0].value, outcomes[2].value] == [1, 3]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_reraise_propagates_original_exception(self, workers):
        tasks = [Task(key=str(i), fn=_maybe_boom, args=(i,)) for i in (1, 2)]
        with pytest.raises(RuntimeError, match="boom"):
            ParallelExecutor(workers=workers).run(tasks, reraise=True)

    def test_serial_reraise_stops_at_the_failure(self):
        ran = []

        def body(x):
            ran.append(x)
            return _maybe_boom(x)

        tasks = [Task(key=str(i), fn=body, args=(i,)) for i in (1, 2, 3)]
        with pytest.raises(RuntimeError, match="boom"):
            ParallelExecutor(workers=1).run(tasks, reraise=True)
        assert ran == [1, 2]

    def test_worker_crash_surfaces_not_hangs(self):
        tasks = [Task(key="crash", fn=_die, args=(0,))]
        outcomes = ParallelExecutor(workers=2).run(tasks)
        assert not outcomes[0].ok
        assert "Broken" in outcomes[0].error or "abruptly" in outcomes[0].error

    @pytest.mark.parametrize("workers", [1, 2])
    def test_seconds_time_each_task_where_it_runs(self, workers):
        # Each task reports its own body's time, measured where it ran:
        # under two workers a short task reports well under the long one.
        naps = [0.05, 0.05, 0.6, 0.05]
        tasks = [Task(key=str(i), fn=_sleep, args=(t,)) for i, t in enumerate(naps)]
        seconds = [o.seconds for o in ParallelExecutor(workers=workers).run(tasks)]
        assert 0.6 <= seconds[2] < 5.0
        for short in (0, 1, 3):
            assert 0.05 <= seconds[short] < 0.3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_perf_is_the_task_bodys_counter_delta(self, workers):
        tasks = [Task(key=str(i), fn=_count, args=(i + 1,)) for i in range(3)]
        outcomes = ParallelExecutor(workers=workers).run(tasks)
        assert [o.perf["counters"]["test.executor.count"] for o in outcomes] == [1, 2, 3]
        assert all(o.perf["elapsed_s"] == o.seconds for o in outcomes)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_parent_registry_counts_every_task_once(self, workers, tmp_path):
        """Pool-run deltas are folded into the parent's registry; an
        in-process run is counted as it runs, and a replay not at all."""
        from repro.core import PROFILER

        journal = RunJournal(tmp_path / "run.jsonl")
        tasks = [
            Task(key=str(i), fn=_count, args=(i + 1,), journal_key=fingerprint("c", i))
            for i in range(3)
        ]
        for expected in (6, 0):  # execute, then replay
            with PROFILER.capture() as delta:
                ParallelExecutor(workers=workers, journal=journal).run(tasks)
            assert delta.counters.get("test.executor.count", 0) == expected

    def test_journal_short_circuits(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        tasks = [
            Task(key="t", fn=_square, args=(4,), journal_key=fingerprint("sq", 4))
        ]
        first = ParallelExecutor(workers=1, journal=journal).run(tasks)
        second = ParallelExecutor(workers=1, journal=journal).run(tasks)
        assert first[0].value == second[0].value == 16
        assert first[0].perf is not None and second[0].perf is None
        assert journal.skipped == 1


# -- framework equivalence: the headline guarantee ----------------------------
def test_framework_rejects_negative_workers(framework):
    with pytest.raises(ConfigurationError):
        framework.run_scenario_repeats("t+t", repeats=2, workers=-1)
    with pytest.raises(ConfigurationError):
        framework.compare(("t+t",), workers=-3)


# Every workers= value runs the executor, so the serial reference is a
# plain loop over run_scenario, the code path the executor must match.
def _direct_repeats(framework, scenario, repeats):
    return [framework.run_scenario(scenario, repeat=i) for i in range(repeats)]


def _direct_compare(framework, scenarios, repeats=1):
    """Median-lifetime result per scenario, as Table I reports it."""
    results = {}
    for key in scenarios:
        runs = _direct_repeats(framework, key, repeats)
        runs.sort(key=lambda r: r.lifetime_applications)
        results[key] = runs[len(runs) // 2]
    return results


@pytest.mark.parametrize("workers", [0, 1, 4])
def test_run_scenario_repeats_parallel_equals_serial(framework, workers):
    direct = _direct_repeats(framework, "t+t", 2)
    runs = framework.run_scenario_repeats("t+t", repeats=2, workers=workers)
    assert runs == direct  # dataclass equality: every field, bit for bit


@pytest.mark.parametrize("workers", [0, 1, 4])
def test_compare_parallel_equals_serial(framework, workers):
    direct = _direct_compare(framework, ("t+t", "st+at"), repeats=3)
    comparison = framework.compare(("t+t", "st+at"), repeats=3, workers=workers)
    assert comparison.workload == framework.dataset.name
    assert list(comparison.results) == ["t+t", "st+at"]
    assert comparison.results == direct


def test_parallel_equivalence_from_fresh_framework(framework):
    """A brand-new framework run parallel-first matches the shared one:
    no hidden dependence on which arm populated the training cache."""
    fresh = _make_framework()
    parallel = fresh.run_scenario_repeats("t+t", repeats=2, workers=4)
    serial = framework.run_scenario_repeats("t+t", repeats=2)
    assert parallel == serial


def test_scenario_journal_roundtrip_is_exact(framework, tmp_path):
    journal = RunJournal(tmp_path / "run.jsonl")

    def run(repeat):
        task = framework.scenario_task("t+t", "t+t", repeat)
        (outcome,) = ParallelExecutor(journal=journal).run([task], reraise=True)
        return outcome.value

    fresh = run(0)
    assert journal.skipped == 0
    replayed = run(0)
    assert journal.skipped == 1
    assert replayed == fresh  # JSON round trip preserves every field exactly
    assert fresh == framework.run_scenario("t+t")

    # A different repeat is a different key — executed, not a stale replay.
    other = run(1)
    assert other != fresh
    assert journal.skipped == 1 and len(RunJournal(journal.path)) == 2


def test_checkpoint_options_stay_out_of_the_key(framework, tmp_path):
    journal = RunJournal(tmp_path / "run.jsonl")
    checkpointed = framework.scenario_task(
        "t+t", "t+t", checkpoint_every=1, checkpoint_dir=tmp_path / "ck"
    )
    ParallelExecutor(journal=journal).run([checkpointed], reraise=True)
    assert list((tmp_path / "ck").glob("t+t-r0-w*.ckpt.json"))
    assert ParallelExecutor(journal=journal).is_stored(
        framework.scenario_task("t+t", "t+t")
    )


def _journal_key(framework, scenario, repeat):
    return framework.scenario_task("k", scenario, repeat).journal_key


def test_scenario_task_key_covers_config(framework):
    key = _journal_key(framework, "t+t", 0)
    assert key != _journal_key(framework, "t+t", 1)
    assert key != _journal_key(framework, "st+at", 0)
    altered = dataclasses.replace(
        framework.config, target_fraction=framework.config.target_fraction * 0.99
    )
    original = framework.config
    try:
        framework.config = altered
        assert _journal_key(framework, "t+t", 0) != key
    finally:
        framework.config = original


def test_compare_through_journal_equals_direct(framework, tmp_path):
    journal = RunJournal(tmp_path / "run.jsonl")
    direct = _direct_compare(framework, ("t+t", "st+at"))
    populated = framework.compare(("t+t", "st+at"), workers=2, journal=journal)
    replayed = framework.compare(("t+t", "st+at"), workers=2, journal=journal)
    assert populated.results == direct
    assert replayed.results == direct
    assert journal.skipped == 2


def test_torn_journal_line_is_not_stored(framework, tmp_path):
    """A torn last line is dropped: the parent trains before fan-out
    instead of leaving it to a pool worker, and the run re-executes."""
    path = tmp_path / "run.jsonl"
    direct = _direct_compare(framework, ("st+t",))
    framework.compare(("st+t",), journal=RunJournal(path))
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

    fresh = _make_framework()  # same seed and config: same journal key
    journal = RunJournal(path)
    task = fresh.scenario_task("st+t", "st+t")
    assert not ParallelExecutor(journal=journal).is_stored(task)
    torn = fresh.compare(("st+t",), workers=2, journal=journal)
    assert True in fresh._trained  # skewed model trained in the parent
    assert journal.dropped_lines == 1 and journal.skipped == 0
    assert torn.results == direct


@pytest.mark.parametrize("workers", [1, 2])
def test_fully_journaled_compare_trains_nothing(framework, tmp_path, workers):
    path = tmp_path / "run.jsonl"
    populated = framework.compare(("t+t", "st+at"), journal=RunJournal(path))
    fresh = _make_framework()  # same seed and config: same journal keys
    replayed = fresh.compare(("t+t", "st+at"), workers=workers, journal=RunJournal(path))
    assert replayed.results == populated.results
    assert fresh._trained == {}


@pytest.mark.parametrize("workers", [1, 2])
def test_run_tasks_trains_only_what_it_executes(framework, tmp_path, workers):
    """A journaled T+T run needs no baseline model; the unjournaled ST+T
    run gets its skewed model trained in the parent, before fan-out."""
    path = tmp_path / "run.jsonl"
    framework.compare(("t+t",), journal=RunJournal(path))
    fresh = _make_framework()  # same seed and config: same journal keys
    tasks = [fresh.scenario_task(k, k) for k in ("t+t", "st+t")]
    outcomes = fresh.run_tasks(tasks, workers, RunJournal(path))
    assert list(fresh._trained) == [True]
    assert [o.key for o in outcomes] == ["t+t", "st+t"]
    assert [o.value for o in outcomes] == [
        framework.run_scenario(k) for k in ("t+t", "st+t")
    ]


def test_run_tasks_raises_the_first_failure(framework):
    tasks = [
        framework.scenario_task("ok", "t+t"),
        framework.scenario_task("bad", "t+t", -1),
    ]
    with pytest.raises(ConfigurationError, match="repeat must be >= 0"):
        framework.run_tasks(tasks)


def test_config_not_mutated_by_runs(framework):
    """Resolving the per-scenario tuning target must not leak back into
    the shared config (it would poison cache keys between runs)."""
    before = dataclasses.replace(framework.config.lifetime.tuning)
    framework.run_scenario("t+t")
    assert framework.config.lifetime.tuning == before


# -- sweep equivalence --------------------------------------------------------
def _draw_metrics(v, rng):
    return {"draw": float(rng.integers(0, 10**9)), "square": float(v) ** 2}


def _sweep_boom(v, rng):
    if v == 2:
        raise RuntimeError("boom")
    return {"v": float(v)}


def _sweep_die(v, rng):
    if v == 2:
        os._exit(3)
    return {"v": float(v)}


class TestSweepParallel:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_metrics_bit_identical(self, workers):
        serial = Sweep("x", _draw_metrics, seed=5).run([1, 2, 3, 4])
        parallel = Sweep("x", _draw_metrics, seed=5).run([1, 2, 3, 4], workers=workers)
        assert [p.value for p in serial.points] == [p.value for p in parallel.points]
        assert [p.metrics for p in serial.points] == [p.metrics for p in parallel.points]
        assert [p.ok for p in serial.points] == [p.ok for p in parallel.points]

    def test_error_isolation_parallel(self):
        result = Sweep("x", _sweep_boom, seed=1).run([1, 2, 3], workers=4)
        assert [p.ok for p in result.points] == [True, False, True]
        assert "boom" in result.points[1].error
        assert result.metric("v") == [1.0, 3.0]

    def test_error_text_matches_serial(self):
        serial = Sweep("x", _sweep_boom, seed=1).run([2])
        parallel = Sweep("x", _sweep_boom, seed=1).run([2], workers=2)
        assert serial.points[0].error == parallel.points[0].error

    def test_worker_crash_becomes_failed_point(self):
        result = Sweep("x", _sweep_die, seed=1).run([1, 2], workers=2)
        assert len(result.points) == 2
        assert not result.points[1].ok  # crashed, surfaced — pool not hung

    def test_fail_fast_parallel_raises_original(self):
        with pytest.raises(RuntimeError, match="boom"):
            Sweep("x", _sweep_boom, seed=1).run([1, 2, 3], workers=4, fail_fast=True)



# -- cache-key properties -----------------------------------------------------
@dataclasses.dataclass
class _ConfigA:
    x: int = 1


@dataclasses.dataclass
class _ConfigB:
    x: int = 1


_ARR = np.arange(12, dtype=np.float64)

#: Inputs a cache key must tell apart (a collision serves a stale result).
_DISTINCT = {
    "float-rounding": ((0.1 + 0.2,), (0.3,)),
    "bool-vs-int": ((True,), (1,)),
    "none-vs-empty": ((None,), ([],)),
    "list-order": (([1, 2],), ([2, 1],)),
    "nested-dict-value": (({"a": {"b": 1}},), ({"a": {"b": 2}},)),
    "dataclass-type": ((_ConfigA(),), (_ConfigB(),)),
    "set-members": (({1, 2},), ({1, 3},)),
    "callable-body": ((_square,), (_maybe_boom,)),
    "part-boundaries": (("ab", "c"), ("a", "bc")),
    "array-values": ((_ARR,), (_ARR + 1e-12,)),
}

#: Inputs a cache key must identify (a mismatch only costs a re-run, but
#: makes the cache useless for that config).
_EQUIVALENT = {
    "numpy-int-scalar": ((np.int64(3),), (3,)),
    "set-vs-frozenset": (({3, 1, 2},), (frozenset({1, 2, 3}),)),
    "tuple-vs-list": (((1, 2),), ([1, 2],)),
    "strided-view": ((_ARR[::2],), (_ARR[::2].copy(),)),
    "nested-dict-order": (({"x": {"a": 1, "b": 2}},), ({"x": {"b": 2, "a": 1}},)),
}


class TestFingerprintTable:
    @pytest.mark.parametrize("case", sorted(_DISTINCT))
    def test_distinct_inputs_get_distinct_keys(self, case):
        left, right = _DISTINCT[case]
        assert fingerprint(*left) != fingerprint(*right)

    @pytest.mark.parametrize("case", sorted(_EQUIVALENT))
    def test_equivalent_inputs_share_a_key(self, case):
        left, right = _EQUIVALENT[case]
        assert fingerprint(*left) == fingerprint(*right)


# -- journal replay -----------------------------------------------------------
class TestJournalReplay:
    """How the executor consults and feeds the run journal."""

    @staticmethod
    def _journal(tmp_path):
        from repro.core import RunJournal

        return RunJournal(tmp_path / "run.jsonl")

    def test_task_without_keys_is_not_journaled(self, tmp_path):
        journal = self._journal(tmp_path)
        ParallelExecutor(journal=journal).run([Task(key="t", fn=_square, args=(3,))])
        assert len(journal) == 0 and not journal.path.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failures_are_not_journaled(self, tmp_path, workers):
        journal = self._journal(tmp_path)
        tasks = [
            Task(key=f"t{i}", fn=_maybe_boom, args=(i,), journal_key=f"jk{i}")
            for i in range(4)
        ]
        outcomes = ParallelExecutor(workers=workers, journal=journal).run(tasks)
        assert [o.ok for o in outcomes] == [True, True, False, True]
        assert sorted(journal.entries) == ["jk0", "jk1", "jk3"]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_replay_decodes_and_reports_no_perf(self, tmp_path, workers):
        journal = self._journal(tmp_path)
        journal.record("jk", {"boxed": 9})
        task = Task(
            key="t",
            fn=_maybe_boom,
            args=(2,),  # would raise if it ran
            journal_key="jk",
            encode=lambda v: {"boxed": v},
            decode=lambda p: p["boxed"],
        )
        (outcome,) = ParallelExecutor(workers=workers, journal=journal).run([task])
        assert outcome.ok and outcome.value == 9
        assert outcome.perf is None
        assert journal.skipped == 1

    @pytest.mark.parametrize("workers", [0, 2])
    def test_journaled_none_is_replayed(self, tmp_path, workers):
        journal = self._journal(tmp_path)
        journal.record("jk", None)
        task = Task(key="t", fn=_maybe_boom, args=(2,), journal_key="jk")
        (outcome,) = ParallelExecutor(workers=workers, journal=journal).run([task])
        assert outcome.ok and outcome.value is None and outcome.perf is None
        assert journal.skipped == 1

    def test_is_stored_has_no_side_effects(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.record("jk", 9)
        before = journal.path.read_bytes()
        executor = ParallelExecutor(journal=journal)
        for key in ("jk", "absent"):
            executor.is_stored(Task(key="t", fn=_square, args=(3,), journal_key=key))
        assert journal.skipped == 0 and sorted(journal.entries) == ["jk"]
        assert journal.path.read_bytes() == before

    @pytest.mark.parametrize("workers", [1, 2])
    def test_dropped_line_is_executed_and_stored_again(self, tmp_path, workers):
        journal = self._journal(tmp_path)
        journal.record("jk", 9)
        line = json.loads(journal.path.read_text())
        journal.path.write_text(json.dumps({**line, "payload": 10}) + "\n")
        relaunch = RunJournal(journal.path)
        assert relaunch.dropped_lines == 1
        task = Task(key="t", fn=_square, args=(3,), journal_key="jk")
        (outcome,) = ParallelExecutor(workers=workers, journal=relaunch).run([task])
        assert outcome.ok and outcome.value == 9 and outcome.perf is not None
        assert relaunch.skipped == 0
        final = RunJournal(journal.path)
        assert final.get("jk") == 9 and final.dropped_lines == 1

    @pytest.mark.parametrize("stored", [True, False], ids=["journal", "neither"])
    def test_is_stored(self, tmp_path, stored):
        journal = self._journal(tmp_path)
        if stored:
            journal.record("jk", 9)
        task = Task(key="t", fn=_square, args=(3,), journal_key="jk")
        assert ParallelExecutor(journal=journal).is_stored(task) == stored

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reraise_keeps_completed_points_for_the_relaunch(self, tmp_path, workers):
        journal = self._journal(tmp_path)
        tasks = [
            Task(key=f"t{i}", fn=_maybe_boom, args=(i,), journal_key=f"jk{i}")
            for i in range(3)
        ]
        with pytest.raises(RuntimeError, match="boom"):
            ParallelExecutor(workers=workers, journal=journal).run(tasks, reraise=True)
        from repro.core import RunJournal

        assert sorted(RunJournal(journal.path).entries) == ["jk0", "jk1"]
