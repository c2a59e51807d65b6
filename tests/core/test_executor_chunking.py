"""Chunked submission and shared-journal draining.

Two scheduling features of :class:`ParallelExecutor`, each pinned to
the engine's core invariant: scheduling may change, results may not.

* :func:`adaptive_chunk_size` + chunked pool submission — outcomes,
  ordering and per-task error isolation identical to a serial run,
  with one-task and many-task chunks alike;
* two executors draining one grid through a shared ``RunJournal`` —
  every point lands exactly once, results bit-identical to a lone
  serial run.
"""

import threading

import pytest

from repro.core import (
    ParallelExecutor,
    RunJournal,
    Task,
    adaptive_chunk_size,
)


def _square(x):
    return x * x


def _boom_on_two(x):
    if x == 2:
        raise RuntimeError("boom at 2")
    return x


def _boom_on_odd(x):
    if x % 2:
        raise RuntimeError(f"boom at {x}")
    return x


def _tasks(n, fn=_square):
    return [Task(key=f"t{i}", fn=fn, args=(i,)) for i in range(n)]


# -- adaptive chunk sizing ----------------------------------------------------
class TestAdaptiveChunkSize:
    def test_empty_and_tiny_grids_stay_unchunked(self):
        assert adaptive_chunk_size(0, workers=4) == 1
        assert adaptive_chunk_size(1, workers=4) == 1
        assert adaptive_chunk_size(7, workers=4) == 1  # the 7-point bench grid

    def test_large_grid_amortizes(self):
        # 64 points / (4 workers * 4-deep oversubscription) = 4 per chunk
        assert adaptive_chunk_size(64, workers=4) == 4
        assert adaptive_chunk_size(256, workers=4) == 16

    def test_max_chunk_cap(self):
        assert adaptive_chunk_size(100_000, workers=1) == 32

    def test_oversubscription_keeps_tail_balanced(self):
        # Every worker gets multiple chunks, so one slow chunk cannot
        # serialize the whole grid behind it.
        n, workers = 64, 4
        chunk = adaptive_chunk_size(n, workers)
        assert n / chunk >= workers * 4


# -- chunked execution equivalence --------------------------------------------
class TestChunkedEquivalence:
    # Over two workers, 3 and 8 tasks go out one per chunk; 10, 40 and
    # 300 tasks in chunks of 2, 5 and (capped) 32.
    @pytest.mark.parametrize("n, chunk", [(3, 1), (8, 1), (10, 2), (40, 5), (300, 32)])
    def test_results_match_serial_in_order(self, n, chunk):
        assert adaptive_chunk_size(n, workers=2) == chunk
        serial = [o.value for o in ParallelExecutor(workers=0).run(_tasks(n))]
        chunked = [o.value for o in ParallelExecutor(workers=2).run(_tasks(n))]
        assert chunked == serial == [i * i for i in range(n)]

    def test_failure_isolated_within_chunk(self):
        # Task 2 raises; its chunk-mates (same pool submission) succeed.
        assert adaptive_chunk_size(40, workers=2) == 5
        outcomes = ParallelExecutor(workers=2).run(_tasks(40, fn=_boom_on_two))
        assert not outcomes[2].ok
        assert "boom at 2" in str(outcomes[2].error)
        assert [o.value for o in outcomes if o.ok] == [
            i for i in range(40) if i != 2
        ]

    def test_unpicklable_result_fails_its_chunk_only(self):
        def body(x):
            return (i for i in range(x)) if x == 1 else x  # generators don't pickle

        outcomes = ParallelExecutor(workers=2).run(_tasks(3, fn=body))
        assert [o.ok for o in outcomes] == [True, False, True]
        assert "generator" in outcomes[1].error
        assert [outcomes[0].value, outcomes[2].value] == [0, 2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reraise_raises_the_first_failure_in_task_order(self, workers):
        with pytest.raises(RuntimeError, match="boom at 1$"):
            ParallelExecutor(workers=workers).run(
                _tasks(40, fn=_boom_on_odd), reraise=True
            )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_successes_are_stored_failures_are_not(self, tmp_path, workers):
        journal = RunJournal(tmp_path / "journal.jsonl")
        tasks = [
            Task(key=f"t{i}", fn=_boom_on_two, args=(i,), journal_key=f"jk{i}")
            for i in range(24)
        ]
        ParallelExecutor(workers=workers, journal=journal).run(tasks)
        stored = {f"jk{i}" for i in range(24) if i != 2}
        assert set(RunJournal(tmp_path / "journal.jsonl").entries) == stored

    def test_chunked_journal_replays_short_circuit(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        tasks = [
            Task(key=f"t{i}", fn=_square, args=(i,), journal_key=f"jk{i}")
            for i in range(24)
        ]
        ParallelExecutor(workers=2, journal=RunJournal(path)).run(tasks)
        journal = RunJournal(path)
        again = ParallelExecutor(workers=2, journal=journal).run(tasks)
        assert [o.value for o in again] == [i * i for i in range(24)]
        assert all(o.perf is None for o in again)
        assert journal.skipped == 24


# -- seeded retry jitter ------------------------------------------------------
class TestSharedJournalDrain:
    def _journal_tasks(self, n):
        return [
            Task(
                key=f"t{i}",
                fn=_square,
                args=(i,),
                journal_key=f"jk{i}",
            )
            for i in range(n)
        ]

    def test_two_executors_complete_grid_exactly_once(self, tmp_path):
        """Satellite contract: two executors draining the same grid via
        a shared journal complete every point exactly once, with
        results bit-identical to a lone serial run."""
        path = tmp_path / "shared.jsonl"
        n = 12
        serial = [o.value for o in ParallelExecutor(workers=0).run(self._journal_tasks(n))]

        results = {}
        errors = []

        def drain(name):
            try:
                journal = RunJournal(path)
                executor = ParallelExecutor(workers=0, journal=journal)
                outcomes = executor.run(self._journal_tasks(n))
                results[name] = [o.value for o in outcomes]
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=drain, args=(name,)) for name in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        # Both drains observed the full, identical result set...
        assert results["a"] == results["b"] == serial
        # ...and the journal holds each point exactly once.
        final = RunJournal(path)
        assert len(final) == n
        assert len(path.read_text().splitlines()) == n
        assert final.dropped_lines == 0

    def test_second_executor_replays_instead_of_recomputing(self, tmp_path):
        path = tmp_path / "shared.jsonl"
        first = RunJournal(path)
        ParallelExecutor(workers=0, journal=first).run(self._journal_tasks(6))

        executed = []

        def traced(x):
            executed.append(x)
            return x * x

        tasks = [
            Task(key=f"t{i}", fn=traced, args=(i,), journal_key=f"jk{i}")
            for i in range(6)
        ]
        second = RunJournal(path)
        outcomes = ParallelExecutor(workers=0, journal=second).run(tasks)
        assert executed == []  # pure replay
        assert [o.value for o in outcomes] == [i * i for i in range(6)]
        assert second.skipped == 6

    def test_sibling_progress_picked_up_mid_run(self, tmp_path):
        """An executor's per-task journal check sees entries a sibling
        process appended *after* this executor loaded the journal."""
        path = tmp_path / "shared.jsonl"
        mine = RunJournal(path)

        sibling = RunJournal(path)

        executed = []

        def traced(x):
            # While "running" task 0, a sibling finishes tasks 3..5.
            if x == 0:
                for i in (3, 4, 5):
                    sibling.record(f"jk{i}", i * i)
            executed.append(x)
            return x * x

        tasks = [
            Task(key=f"t{i}", fn=traced, args=(i,), journal_key=f"jk{i}")
            for i in range(6)
        ]
        outcomes = ParallelExecutor(workers=0, journal=mine).run(tasks)
        assert executed == [0, 1, 2]  # 3..5 replayed from the sibling
        assert [o.value for o in outcomes] == [i * i for i in range(6)]
