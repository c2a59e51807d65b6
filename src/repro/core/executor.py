"""Process-parallel execution engine with deterministic seeding.

Every experiment in this repository — the Table-I scenario comparison,
per-scenario repeats, the fault campaigns and the ablation sweeps —
decomposes into independent *tasks* whose randomness is derived purely
from an ``(entropy, purpose-key)`` pair (see :mod:`repro.rng`).  Because
no task consumes shared generator state, the set of results is
independent of execution order, which is exactly the property that
makes process parallelism safe: fanning tasks out across a
:class:`concurrent.futures.ProcessPoolExecutor` yields **bit-identical**
results to running them serially.  The equivalence is enforced by
``tests/core/test_executor.py``, not left to convention.

Two pieces live here:

* :func:`fingerprint` — a stable content hash of (nested) configs,
  datasets and arrays, used to build journal keys;
* :class:`ParallelExecutor` — the one way a grid of tasks executes:
  in-process (``workers <= 1``) or in chunks across worker processes,
  replaying tasks the run journal
  (:class:`~repro.core.checkpoint.RunJournal`) already holds, storing
  the ones that complete, and capturing per-task failures (a crashing
  worker fails its own chunk, never the whole grid, and never hangs
  the pool).

Tasks are shipped to workers with :mod:`cloudpickle`, so closures and
lambdas (ubiquitous in presets and test fixtures) work.
"""

from __future__ import annotations

import hashlib
import json
import logging
import traceback
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, fields, is_dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

import cloudpickle as _serializer  # lambdas/closures; stdlib pickle cannot
import numpy as np

from repro.core.profiling import PROFILER
from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.checkpoint import RunJournal

logger = logging.getLogger(__name__)


# -- fingerprinting -----------------------------------------------------------
def _canonical(obj: Any) -> Any:
    """JSON-ready canonical form of ``obj`` for stable hashing.

    Numpy arrays are folded to a digest of their bytes (shape/dtype
    included), dataclasses to their field dict, callables to a digest of
    their serialized form.  Objects with no stable representation fall
    back to ``repr`` — such keys are safe (they simply never match) but
    useless for replay, so config objects should be dataclasses.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)  # exact shortest round-trip, no JSON float quirks
    if isinstance(obj, np.generic):
        return _canonical(obj.item())
    if isinstance(obj, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()
        return {"__ndarray__": digest, "dtype": str(obj.dtype), "shape": list(obj.shape)}
    if is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            "fields": {f.name: _canonical(getattr(obj, f.name)) for f in fields(obj)},
        }
    if isinstance(obj, dict):
        return {"__dict__": sorted((str(k), _canonical(v)) for k, v in obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return {"__set__": sorted(repr(v) for v in obj)}
    if callable(obj):
        try:
            return {"__callable__": hashlib.sha256(_serializer.dumps(obj)).hexdigest()}
        except Exception:
            return {"__callable__": getattr(obj, "__qualname__", repr(obj))}
    return {"__repr__": repr(obj)}


def fingerprint(*parts: Any) -> str:
    """Stable SHA-256 hex digest of arbitrarily nested configuration.

    >>> fingerprint(1, "a") == fingerprint(1, "a")
    True
    >>> fingerprint(1, "a") == fingerprint(1, "b")
    False
    """
    blob = json.dumps(
        [_canonical(p) for p in parts], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- tasks --------------------------------------------------------------------
@dataclass
class Task:
    """One unit of work: ``fn(*args, **kwargs)``, optionally journaled.

    ``key`` is a human-readable purpose key (also the outcome label);
    ``journal_key`` is the full content-hash key under which a completed
    result is stored in the executor's journal (``None`` keeps the task
    out of the journal).  ``encode``/``decode`` convert the result to
    and from a JSON-serializable payload for the journal.
    """

    key: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    journal_key: Optional[str] = None
    encode: Optional[Callable[[Any], Any]] = None
    decode: Optional[Callable[[Any], Any]] = None


@dataclass
class TaskOutcome:
    """Result of one task: a value or a captured error, never both."""

    key: str
    value: Any = None
    error: Optional[str] = None
    #: Wall time of the task body, measured where it ran.
    seconds: float = 0.0
    #: The task body's :data:`~repro.core.profiling.PROFILER` delta
    #: (``PerfDelta.to_dict()``), also from a pool worker; ``None`` when
    #: the body never ran here (journal replay, lost worker).
    perf: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.error is None


#: Chunks per worker a fan-out aims for, so an uneven grid's tail stays
#: balanced.
_OVERSUBSCRIBE = 4
#: Upper bound on the tasks of one chunk.
_MAX_CHUNK = 32
#: Pool rebuilds one :meth:`ParallelExecutor.run` allows after hard
#: worker deaths before it fails the chunks still waiting.
_MAX_POOL_REBUILDS = 3


def adaptive_chunk_size(n_tasks: int, workers: int) -> int:
    """Tasks per pool submission for an ``n_tasks``-point fan-out.

    One future per task pays serialization + IPC + scheduling per
    *point*; for large grids of short points that overhead eats the
    parallel win.  Chunking amortizes it while still leaving each
    worker ``_OVERSUBSCRIBE`` chunks on average, so the tail of an
    uneven grid stays balanced.  Small grids degrade to one point per
    chunk.
    """
    if n_tasks <= 0:
        return 1
    per_worker = max(1, workers) * _OVERSUBSCRIBE
    return max(1, min(_MAX_CHUNK, -(-n_tasks // per_worker)))


def _run_task(fn: Callable[..., Any], args, kwargs) -> tuple:
    """Run one task body where it executes, in-process or in a worker.

    Returns ``(value, exception, traceback_text, seconds, perf)``: the
    body's own wall time and :data:`PROFILER` delta, whether it returned
    or raised.
    """
    exc = text = value = None
    with PROFILER.capture() as delta:
        try:
            value = fn(*args, **kwargs)
        except Exception as caught:
            exc, text = caught, traceback.format_exc(limit=8)
    return value, exc, text, delta.elapsed_s, delta.to_dict()


def _run_task_chunk(blob: bytes) -> bytes:
    """Worker-side trampoline for one chunk of ``(fn, args, kwargs)``.

    Module-level so the stdlib pool can always pickle *it*; the chunk
    travels as one cloudpickle ``blob``, and so do its results.  Each
    task's failure is captured on its own, so one raising task cannot
    poison its chunk-mates; exceptions that refuse to serialize are
    downgraded to a ``RuntimeError`` carrying their repr.
    """
    results = []
    for fn, args, kwargs in _serializer.loads(blob):
        value, exc, text, seconds, perf = _run_task(fn, args, kwargs)
        if exc is not None:
            exc.__traceback__ = None  # frames are not transportable
            try:
                _serializer.dumps(exc)
            except Exception:
                exc = RuntimeError(f"unserializable task exception: {exc!r}")
        results.append((value, exc, text, seconds, perf))
    return _serializer.dumps(results)


# -- the executor -------------------------------------------------------------
class ParallelExecutor:
    """Run tasks in-process or across processes, with identical results.

    ``workers <= 1`` runs in-process (the reference semantics);
    ``workers > 1`` fans chunks of :func:`adaptive_chunk_size` tasks out
    over a process pool — even for one task, so a crashing task can
    never take the parent down.  Both paths run every task body through
    the same helper, and because every task derives its randomness from
    ``(entropy, purpose-key)`` the outputs are bit-identical.  Results
    are returned in task order regardless of completion order.

    A worker that dies hard (``BrokenProcessPool``) fails its own chunk:
    the pool is rebuilt — at most ``_MAX_POOL_REBUILDS`` times per run —
    and the chunks it took down with it are resubmitted.  The pool
    cannot say which chunk killed the worker, so the first unfinished
    chunk in submission order is charged.
    """

    def __init__(
        self, workers: int = 1, journal: Optional["RunJournal"] = None
    ) -> None:
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        self.workers = int(workers)
        #: Optional :class:`repro.core.checkpoint.RunJournal`, the one
        #: result store.  Tasks whose ``journal_key`` is already
        #: journaled are replayed without executing; completed tasks are
        #: appended durably as they finish, so a killed run re-executes
        #: only the points that never completed.
        self.journal = journal

    def run(self, tasks: Sequence[Task], reraise: bool = False) -> List[TaskOutcome]:
        """Execute all tasks; returns one outcome per task, in order.

        With ``reraise=False`` a failing task's exception is captured in
        its outcome's ``error`` (traceback text) and the other tasks
        still complete — including when a worker process dies, which
        surfaces as a ``BrokenProcessPool`` error on the affected chunk
        rather than a hang.  With ``reraise=True`` the first failure in
        task order propagates to the caller.
        """
        outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)
        pending: List[int] = []
        for idx, task in enumerate(tasks):
            outcomes[idx] = self._journal_replay(task)
            if outcomes[idx] is None:
                pending.append(idx)
        if self.workers > 1 and pending:
            self._run_parallel(tasks, pending, outcomes, reraise)
        else:
            for idx in pending:
                task = tasks[idx]
                # Tasks run long: a sibling sharing the journal may have
                # completed this one since the run started.
                outcomes[idx] = self._journal_replay(task) or self._complete(
                    task, _run_task(task.fn, task.args, task.kwargs), reraise
                )
        return outcomes  # type: ignore[return-value]

    def is_stored(self, task: Task) -> bool:
        """Whether the journal already holds ``task``'s result."""
        journal_key = self._journal_key(task)
        return journal_key is not None and journal_key in self.journal

    def _journal_key(self, task: Task) -> Optional[str]:
        return task.journal_key if self.journal is not None else None

    def _journal_replay(self, task: Task) -> Optional[TaskOutcome]:
        """Replay ``task`` from the (refreshed) journal, if it is there.

        The journal is shared state: with several executor processes
        draining the same grid, a sibling may have completed and
        journaled a point after this run() started.  Re-checking before
        executing turns the journal into a coarse work-sharing channel —
        late joiners skip instead of recomputing.
        """
        journal_key = self._journal_key(task)
        if journal_key is None:
            return None
        self.journal.refresh()
        if journal_key not in self.journal:
            return None
        payload = self.journal.get(journal_key)
        value = task.decode(payload) if task.decode else payload
        self.journal.skipped += 1
        return TaskOutcome(task.key, value=value)

    def _complete(self, task: Task, result: tuple, reraise: bool) -> TaskOutcome:
        """Turn one finished task body into its outcome.

        A success is durably appended to the journal the moment it
        arrives — the crash-safety granularity the journal exists for.
        A failure raises here when ``reraise``.
        """
        value, exc, text, seconds, perf = result
        if exc is not None:
            if reraise:
                raise exc
            return TaskOutcome(task.key, error=text, seconds=seconds, perf=perf)
        journal_key = self._journal_key(task)
        if journal_key is not None:
            self.journal.record(
                journal_key, task.encode(value) if task.encode else value
            )
        return TaskOutcome(task.key, value=value, seconds=seconds, perf=perf)

    def _run_parallel(self, tasks, pending, outcomes, reraise) -> None:
        size = adaptive_chunk_size(len(pending), self.workers)
        chunks = [pending[i:i + size] for i in range(0, len(pending), size)]
        # Each chunk is serialized once, so an argument its tasks share
        # (a grid's framework) crosses the process boundary once.
        blobs = [
            _serializer.dumps(
                [(tasks[i].fn, tasks[i].args, tasks[i].kwargs) for i in chunk]
            )
            for chunk in chunks
        ]
        # Failures are held back so they complete (and raise) in task order.
        failed: Dict[int, tuple] = {}
        waiting = list(range(len(chunks)))
        for rebuild in range(_MAX_POOL_REBUILDS + 1):
            if rebuild:
                logger.warning(
                    "worker pool rebuilt; resubmitting %d chunk(s)", len(waiting)
                )
            broken: Dict[int, BaseException] = {}
            for chunk, results, exc in self._pool_results(blobs, waiting):
                if isinstance(exc, BrokenExecutor):
                    broken[chunk] = exc
                    continue
                if exc is not None:  # the chunk itself could not run or report
                    results = [_chunk_failure(exc)] * len(chunks[chunk])
                else:  # its tasks ran in a worker: count their work here too
                    for result in results:
                        PROFILER.merge(result[4])
                for idx, result in zip(chunks[chunk], results):
                    if result[1] is None:
                        outcomes[idx] = self._complete(tasks[idx], result, False)
                    else:
                        failed[idx] = result
            if not broken:
                break
            # The pool cannot say whose worker died: charge the first
            # unfinished chunk and resubmit the others on a fresh pool.
            culprit, *waiting = sorted(broken)
            lost = _chunk_failure(broken[culprit])
            failed.update((idx, lost) for idx in chunks[culprit])
            if not waiting:
                break
        else:
            exc = RuntimeError(
                f"worker pool broke again after {_MAX_POOL_REBUILDS} rebuilds; "
                "giving up on the remaining tasks"
            )
            lost = _chunk_failure(exc)
            failed.update((idx, lost) for c in waiting for idx in chunks[c])
        for idx in sorted(failed):
            outcomes[idx] = self._complete(tasks[idx], failed[idx], reraise)

    def _pool_results(self, blobs, waiting):
        """Run the ``waiting`` chunks on a fresh pool, yielding as they end.

        Yields ``(chunk, results, None)`` for a chunk that reported, and
        ``(chunk, None, exception)`` for one that did not: a
        ``BrokenExecutor`` when a dead worker took it down.
        """
        pool = ProcessPoolExecutor(max_workers=min(self.workers, len(waiting)))
        try:
            futures = {}
            for chunk in waiting:
                try:
                    futures[pool.submit(_run_task_chunk, blobs[chunk])] = chunk
                except BrokenExecutor as exc:
                    # A worker died while chunks were still being submitted.
                    yield chunk, None, exc
            for future in as_completed(futures):
                try:
                    results = _serializer.loads(future.result())
                except Exception as exc:
                    yield futures[future], None, exc
                else:
                    yield futures[future], results, None
        finally:
            pool.shutdown(wait=True, cancel_futures=True)


def _chunk_failure(exc: BaseException) -> tuple:
    """Task result for each task of a chunk that failed as a whole."""
    text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    return None, exc, text, 0.0, None
