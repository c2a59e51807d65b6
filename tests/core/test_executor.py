"""The execution engine's contract: parallel == serial, bit for bit.

Every grid entry point (``compare``, ``run_scenario_repeats``,
``Sweep.run``) is pinned against a serial reference — a direct
``run_scenario`` loop for the framework grids — with identical
``LifetimeResult``/``SweepResult`` fields, not approximately equal
ones.  Also covered: the on-disk result cache (hit/miss semantics,
exact round-trip) and failure surfacing (a crashing worker produces a
failed point, never a hung pool).
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from repro.core import (
    AgingAwareFramework,
    FrameworkConfig,
    LifetimeConfig,
    ParallelExecutor,
    ResultCache,
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


# -- result cache -------------------------------------------------------------
class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        from repro.core.executor import _MISS

        cache = ResultCache(tmp_path / "c")
        assert cache.get("k") is _MISS
        cache.put("k", {"x": 1.5})
        assert cache.get("k") == {"x": 1.5}
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        from repro.core.executor import _MISS

        cache = ResultCache(tmp_path)
        cache.put("k", [1, 2])
        cache.path("k").write_text("{not json")
        assert cache.get("k") is _MISS

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.clear() == 2
        assert len(cache) == 0


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
        assert all(o.ok and not o.cached for o in outcomes)

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

    def test_cache_short_circuits(self, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = [Task(key="t", fn=_square, args=(4,), cache_key=fingerprint("sq", 4))]
        first = ParallelExecutor(workers=1, cache=cache).run(tasks)
        second = ParallelExecutor(workers=1, cache=cache).run(tasks)
        assert first[0].value == second[0].value == 16
        assert not first[0].cached and second[0].cached
        assert first[0].perf is not None and second[0].perf is None

    def test_failed_tasks_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = [
            Task(key="t", fn=_maybe_boom, args=(2,), cache_key=fingerprint("boom"))
        ]
        ParallelExecutor(workers=1, cache=cache).run(tasks)
        assert len(cache) == 0


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


def test_scenario_cache_roundtrip_is_exact(framework, tmp_path):
    cache = ResultCache(tmp_path)
    fresh = framework.run_scenario("t+t", cache=cache)
    assert (cache.hits, cache.misses) == (0, 1)
    cached = framework.run_scenario("t+t", cache=cache)
    assert cache.hits == 1
    assert cached == fresh  # JSON round trip preserves every field exactly

    # A different repeat is a different key — miss, not a stale hit.
    other = framework.run_scenario("t+t", repeat=1, cache=cache)
    assert other != fresh
    assert len(cache) == 2


def test_scenario_cache_key_covers_config(framework):
    key = framework.scenario_cache_key("t+t", 0)
    assert key != framework.scenario_cache_key("t+t", 1)
    assert key != framework.scenario_cache_key("st+at", 0)
    altered = dataclasses.replace(
        framework.config, target_fraction=framework.config.target_fraction * 0.99
    )
    original = framework.config
    try:
        framework.config = altered
        assert framework.scenario_cache_key("t+t", 0) != key
    finally:
        framework.config = original


def test_compare_through_cache_equals_direct(framework, tmp_path):
    cache = ResultCache(tmp_path)
    direct = _direct_compare(framework, ("t+t", "st+at"))
    populated = framework.compare(("t+t", "st+at"), workers=2, cache=cache)
    replayed = framework.compare(("t+t", "st+at"), workers=2, cache=cache)
    assert populated.results == direct
    assert replayed.results == direct
    assert cache.hits >= 2


def test_torn_cache_entry_is_not_stored(framework, tmp_path):
    """A torn entry is a miss: the parent trains before fan-out instead of
    leaving it to a pool worker, and the entry is quarantined on read."""
    cache = ResultCache(tmp_path)
    direct = _direct_compare(framework, ("st+t",))
    framework.compare(("st+t",), cache=cache)
    key = framework.scenario_cache_key("st+t", 0)
    path = cache.path(key)
    path.write_text(path.read_text()[: path.stat().st_size // 2])

    fresh = _make_framework()  # same seed and config: same cache key
    task = Task(key="st+t", fn=fresh.run_scenario, cache_key=key)
    assert not ParallelExecutor(cache=cache).is_stored(task)
    torn = fresh.compare(("st+t",), workers=2, cache=cache)
    assert True in fresh._trained  # skewed model trained in the parent
    assert cache.quarantined == 1
    assert torn.results == direct


@pytest.mark.parametrize("workers", [1, 2])
def test_fully_cached_compare_trains_nothing(framework, tmp_path, workers):
    cache = ResultCache(tmp_path)
    populated = framework.compare(("t+t", "st+at"), cache=cache)
    fresh = _make_framework()  # same seed and config: same cache keys
    replayed = fresh.compare(("t+t", "st+at"), workers=workers, cache=cache)
    assert replayed.results == populated.results
    assert fresh._trained == {}


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


class TestResultCacheProbes:
    def test_cached_none_is_a_hit(self, tmp_path):
        from repro.core.executor import _MISS

        cache = ResultCache(tmp_path)
        cache.put("k", None)
        assert cache.get("k") is None and cache.get("k") is not _MISS
        assert (cache.hits, cache.misses) == (2, 0)

    def test_contains_is_side_effect_free(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("good", 1)
        cache.put("bad", 2)
        cache.path("bad").write_text("{torn")
        assert "good" in cache and "bad" not in cache and "absent" not in cache
        assert (cache.hits, cache.misses, cache.quarantined) == (0, 0, 0)
        assert cache.path("bad").exists()

    def test_empty_cache_is_truthy(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0 and bool(cache)

    def test_put_overwrites(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", {"v": 1})
        cache.put("k", {"v": 2})
        assert cache.get("k") == {"v": 2} and len(cache) == 1

    def test_quarantined_entries_are_not_counted_or_cleared(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", 1)
        cache.path("k").write_text("{torn")
        cache.get("k")  # quarantines
        assert len(cache) == 0 and cache.clear() == 0
        assert cache.path("k").with_name("k.json.corrupt").exists()


# -- journal replay -----------------------------------------------------------
class TestJournalReplay:
    """How the executor consults and feeds the run journal."""

    @staticmethod
    def _journal(tmp_path):
        from repro.core import RunJournal

        return RunJournal(tmp_path / "run.jsonl")

    def test_journal_key_falls_back_to_cache_key(self, tmp_path):
        journal = self._journal(tmp_path)
        task = Task(key="t", fn=_square, args=(3,), cache_key="ck")
        ParallelExecutor(journal=journal).run([task])
        assert journal.get("ck") == 9

    def test_explicit_journal_key_wins(self, tmp_path):
        journal = self._journal(tmp_path)
        task = Task(key="t", fn=_square, args=(3,), cache_key="ck", journal_key="jk")
        ParallelExecutor(journal=journal).run([task])
        assert list(journal.entries) == ["jk"]

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
        assert outcome.perf is None and not outcome.cached
        assert journal.skipped == 1

    def test_cache_hit_is_preferred_to_the_journal(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("ck", 9)
        journal = self._journal(tmp_path)
        journal.record("ck", 9)
        task = Task(key="t", fn=_square, args=(3,), cache_key="ck")
        (outcome,) = ParallelExecutor(cache=cache, journal=journal).run([task])
        assert outcome.cached and journal.skipped == 0

    @pytest.mark.parametrize("store", ["cache", "journal", "neither"])
    def test_is_stored(self, tmp_path, store):
        cache = ResultCache(tmp_path / "cache")
        journal = self._journal(tmp_path)
        if store == "cache":
            cache.put("ck", 9)
        elif store == "journal":
            journal.record("jk", 9)
        task = Task(key="t", fn=_square, args=(3,), cache_key="ck", journal_key="jk")
        executor = ParallelExecutor(cache=cache, journal=journal)
        assert executor.is_stored(task) == (store != "neither")

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
