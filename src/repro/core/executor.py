"""Process-parallel execution engine with deterministic seeding and caching.

Every experiment in this repository — the Table-I scenario comparison,
per-scenario repeats and the ablation sweeps — decomposes into
independent *tasks* whose randomness is derived purely from an
``(entropy, purpose-key)`` pair (see :mod:`repro.rng`).  Because no task
consumes shared generator state, the set of results is independent of
execution order, which is exactly the property that makes process
parallelism safe: fanning tasks out across a
:class:`concurrent.futures.ProcessPoolExecutor` yields **bit-identical**
results to running them serially.  The equivalence is enforced by
``tests/core/test_executor.py``, not left to convention.

Three pieces live here:

* :func:`fingerprint` — a stable content hash of (nested) configs,
  datasets and arrays, used to build cache keys;
* :class:`ResultCache` — an on-disk JSON store keyed by fingerprint, so
  re-running an unchanged scenario configuration is instant;
* :class:`ParallelExecutor` — runs a list of :class:`Task` objects
  serially (``workers <= 1``) or across worker processes, consulting
  the cache first and capturing per-task failures (a crashing worker
  surfaces as a failed task, never a hung pool).

Resilience (used by the fault-injection campaigns of
:mod:`repro.robustness`, where worker failures are part of the job):

* :class:`RetryPolicy` — bounded re-execution of failed tasks with
  exponential backoff, for transient worker failures;
* per-task timeouts (``Task.timeout`` or the executor-wide
  ``task_timeout``), enforced in parallel mode;
* pool reconstruction — when a worker dies hard (``BrokenProcessPool``)
  or a task times out, the pool is rebuilt and the *sibling* in-flight
  tasks are resubmitted at no retry cost, so one poisoned task can no
  longer fail its whole batch.

Tasks are shipped to workers with :mod:`cloudpickle` when available, so
closures and lambdas (ubiquitous in presets and test fixtures) work;
plain :mod:`pickle` is the fallback.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
import traceback
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass, field, fields, is_dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.checkpoint import RunJournal

logger = logging.getLogger(__name__)

try:  # cloudpickle serializes lambdas/closures; stdlib pickle cannot.
    import cloudpickle as _serializer
except Exception:  # pragma: no cover - exercised only without cloudpickle
    import pickle as _serializer

#: Cache-format version; bump when payload semantics change.
CACHE_SCHEMA = 1

#: Sentinel distinguishing "cache miss" from a cached ``None`` payload.
_MISS = object()


# -- fingerprinting -----------------------------------------------------------
def _canonical(obj: Any) -> Any:
    """JSON-ready canonical form of ``obj`` for stable hashing.

    Numpy arrays are folded to a digest of their bytes (shape/dtype
    included), dataclasses to their field dict, callables to a digest of
    their serialized form.  Objects with no stable representation fall
    back to ``repr`` — such keys are safe (they simply never match) but
    useless for caching, so config objects should be dataclasses.
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


# -- on-disk result cache -----------------------------------------------------
class ResultCache:
    """JSON file per cache key under one root directory.

    Payloads must be JSON-serializable (use ``Task.encode``/``decode``
    to convert rich results).  Corrupt or unreadable entries degrade to
    cache misses, never to errors — but they are *quarantined* (renamed
    to ``<key>.json.corrupt`` with a logged warning) rather than left in
    place, so recurring disk corruption stays visible instead of
    silently re-missing forever.
    """

    def __init__(self, root) -> None:
        import pathlib

        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: Corrupt entries renamed aside since this cache was opened.
        self.quarantined = 0

    def path(self, key: str):
        return self.root / f"{key}.json"

    def get(self, key: str) -> Any:
        """Cached payload for ``key``, or the module-level miss sentinel."""
        from repro.io import load_json

        path = self.path(key)
        if not path.exists():
            self.misses += 1
            return _MISS
        try:
            entry = load_json(path)
            if entry.get("schema") != CACHE_SCHEMA:
                raise ValueError(f"unknown cache schema {entry.get('schema')!r}")
            payload = entry["payload"]
        except Exception as exc:
            self.misses += 1
            self._quarantine(path, exc)
            return _MISS
        self.hits += 1
        return payload

    def _quarantine(self, path, exc: Exception) -> None:
        """Rename a corrupt entry aside so the damage stays observable."""
        quarantine = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, quarantine)
        except OSError:  # pragma: no cover - raced/unwritable directory
            return
        self.quarantined += 1
        logger.warning(
            "quarantined corrupt cache entry %s -> %s (%s)",
            path.name,
            quarantine.name,
            exc,
        )

    def put(self, key: str, payload: Any) -> None:
        from repro.io import save_json_atomic

        save_json_atomic(
            {"schema": CACHE_SCHEMA, "key": key, "saved_unix": time.time(),
             "payload": payload},
            self.path(key),
        )

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def __bool__(self) -> bool:
        # An *empty* cache is still a cache: never let `if cache:`
        # silently disable caching through __len__.
        return True

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.root.glob("*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed


# -- retry policy -------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded re-execution of failed tasks with exponential backoff.

    A task that raises (or whose worker dies) is re-run up to
    ``max_retries`` further times; before the *n*-th retry the executor
    sleeps ``min(backoff_max, backoff_base * 2**(n-1))`` seconds.
    Retries re-run the identical payload, so for derivation-seeded tasks
    a retried success is bit-identical to a first-attempt success —
    retrying can only recover *transient* infrastructure failures
    (OOM-killed worker, flaky filesystem), never change a result.

    ``jitter`` (a fraction in ``[0, 1]``) spreads the delays of
    simultaneous retriers: the backoff is scaled by a factor drawn
    deterministically from ``(jitter_seed, token, failures)``, landing
    in ``[1 - jitter, 1]`` of the nominal delay.  Give each worker of a
    fleet a distinct ``jitter_seed`` (or pass a per-worker ``token`` to
    :meth:`delay`) so a shared-cache hiccup does not make every worker
    retry in lock-step — the thundering herd that knocked the cache
    over in the first place.  The schedule stays fully deterministic:
    the same (seed, token, failure count) always yields the same delay.
    """

    max_retries: int = 2
    backoff_base: float = 0.1
    backoff_max: float = 5.0
    jitter: float = 0.0
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ConfigurationError("backoff delays must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    def _jitter_factor(self, failures: int, token: Optional[str]) -> float:
        blob = f"{self.jitter_seed}/{token}/{failures}".encode("utf-8")
        unit = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") / 2.0**64
        return 1.0 - self.jitter * unit

    def delay(self, failures: int, token: Optional[str] = None) -> float:
        """Backoff before the retry following the ``failures``-th failure.

        ``token`` (e.g. a worker id or task key) decorrelates the jitter
        of concurrent retriers without sacrificing determinism.
        """
        if failures < 1:
            return 0.0
        base = min(self.backoff_max, self.backoff_base * (2.0 ** (failures - 1)))
        if self.jitter <= 0.0 or base <= 0.0:
            return base
        return base * self._jitter_factor(failures, token)

    def call(
        self,
        fn: Callable[[], Any],
        token: Optional[str] = None,
        retryable: Optional[Callable[[BaseException], bool]] = None,
    ) -> Any:
        """Run ``fn()`` with this policy's retry schedule applied.

        The generic in-process counterpart of the executor's task
        retries, shared by the service worker (point execution) and the
        HTTP client (transient network errors).  ``retryable`` filters
        which exceptions are worth another attempt — anything it
        rejects (or every exception, once ``max_retries`` is exhausted)
        propagates unchanged.
        """
        failures = 0
        while True:
            try:
                return fn()
            except Exception as exc:
                if retryable is not None and not retryable(exc):
                    raise
                failures += 1
                if failures > self.max_retries:
                    raise
                time.sleep(self.delay(failures, token=token))


# -- tasks --------------------------------------------------------------------
@dataclass
class Task:
    """One unit of work: ``fn(*args, **kwargs)``, optionally cached.

    ``key`` is a human-readable purpose key (also the outcome label);
    ``cache_key`` is the full content-hash key (``None`` disables
    caching for this task).  ``encode``/``decode`` convert the result to
    and from a JSON-serializable payload for the cache.  ``timeout``
    (seconds) bounds one execution attempt of this task — enforced in
    parallel mode, where a hung worker can be reclaimed; serial
    in-process execution cannot be preempted and ignores it.
    """

    key: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    cache_key: Optional[str] = None
    encode: Optional[Callable[[Any], Any]] = None
    decode: Optional[Callable[[Any], Any]] = None
    timeout: Optional[float] = None
    #: Content-hash key under which a completed result is journaled
    #: (crash-safe resume of campaign/sweep grids); falls back to
    #: ``cache_key``.  ``None`` on both disables journaling for the task.
    journal_key: Optional[str] = None


@dataclass
class TaskOutcome:
    """Result of one task: a value or a captured error, never both."""

    key: str
    value: Any = None
    error: Optional[str] = None
    seconds: float = 0.0
    cached: bool = False
    #: True when the value was replayed from a crash-safe run journal.
    journaled: bool = False
    #: Execution attempts consumed (0 for cache hits).
    attempts: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


def _invoke_payload(payload: bytes) -> bytes:
    """Worker-side trampoline: deserialize, run, reserialize.

    Module-level so the stdlib pool can always pickle *it*; the real
    callable travels inside ``payload`` via cloudpickle.
    """
    fn, args, kwargs = _serializer.loads(payload)
    return _serializer.dumps(fn(*args, **kwargs))


def adaptive_chunk_size(
    n_tasks: int,
    workers: int,
    oversubscribe: int = 4,
    max_chunk: int = 32,
) -> int:
    """Tasks per pool submission for an ``n_tasks``-point fan-out.

    One future per task pays serialization + IPC + scheduling per
    *point*; for large grids of short points that overhead eats the
    parallel win (BENCH_campaign's historical 0.99x).  Chunking
    amortizes it while still leaving each worker ``oversubscribe``
    chunks on average, so the tail of an uneven grid stays balanced.
    Small grids degrade to one point per task — exactly the historical
    behaviour.
    """
    if n_tasks <= 0:
        return 1
    per_worker = max(1, workers) * max(1, oversubscribe)
    return max(1, min(max_chunk, -(-n_tasks // per_worker)))


def _run_task_chunk(blobs: List[bytes]) -> list:
    """Worker-side trampoline for a *chunk* of tasks.

    Runs each serialized ``(fn, args, kwargs)`` payload in order and
    captures per-task failures, so one raising task cannot poison its
    chunk-mates.  Returns ``(True, value)`` or ``(False, exception,
    traceback_text)`` per task; exceptions that refuse to serialize are
    downgraded to a ``RuntimeError`` carrying their repr, keeping the
    chunk result transportable.
    """
    out: list = []
    for blob in blobs:
        fn, args, kwargs = _serializer.loads(blob)
        try:
            out.append((True, fn(*args, **kwargs)))
        except Exception as exc:
            text = traceback.format_exc(limit=8)
            exc.__traceback__ = None  # frames are not transportable
            try:
                _serializer.dumps(exc)
            except Exception:
                exc = RuntimeError(f"unserializable task exception: {exc!r}")
            out.append((False, exc, text))
    return out


# -- the executor -------------------------------------------------------------
class ParallelExecutor:
    """Run tasks serially or across processes, with identical results.

    ``workers <= 1`` runs in-process (the reference semantics);
    ``workers > 1`` fans out over a process pool.  Both paths execute
    the same task functions, and because every task derives its
    randomness from ``(entropy, purpose-key)`` the outputs are
    bit-identical.  Results are returned in task order regardless of
    completion order.

    ``retry`` enables bounded re-execution of failed tasks with
    exponential backoff (both modes).  ``task_timeout`` bounds each
    execution attempt (parallel mode; a per-task ``Task.timeout``
    overrides it).  In parallel mode a hard worker death or a timeout
    triggers pool reconstruction — bounded by ``max_pool_rebuilds`` —
    and the unaffected in-flight tasks are resubmitted without
    consuming one of their retries.

    ``chunk_size`` groups tasks into one pool submission each
    (``None`` picks :func:`adaptive_chunk_size` automatically, ``1``
    forces the historical one-future-per-task behaviour).  Chunking
    only changes *scheduling*: every task still runs the same function
    with the same derivation-based randomness, so chunked results are
    bit-identical to unchunked and serial ones.  A per-task timeout
    inside a chunk becomes a chunk-level budget (the sum over its
    tasks), since a chunk is the smallest preemptible unit.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        retry: Optional[RetryPolicy] = None,
        task_timeout: Optional[float] = None,
        max_pool_rebuilds: int = 3,
        journal: Optional["RunJournal"] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        if task_timeout is not None and task_timeout <= 0:
            raise ConfigurationError(
                f"task_timeout must be > 0, got {task_timeout}"
            )
        if max_pool_rebuilds < 0:
            raise ConfigurationError(
                f"max_pool_rebuilds must be >= 0, got {max_pool_rebuilds}"
            )
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1 (or None for auto), got {chunk_size}"
            )
        self.workers = int(workers)
        self.cache = cache
        self.retry = retry
        self.task_timeout = task_timeout
        self.max_pool_rebuilds = int(max_pool_rebuilds)
        self.chunk_size = chunk_size
        #: Optional :class:`repro.core.checkpoint.RunJournal`.  Tasks
        #: whose journal key (``Task.journal_key`` or ``cache_key``) is
        #: already journaled are replayed without executing; completed
        #: tasks are appended durably as they finish, so a killed run
        #: re-executes only the points that never completed.
        self.journal = journal

    def run(self, tasks: Sequence[Task], reraise: bool = False) -> List[TaskOutcome]:
        """Execute all tasks; returns one outcome per task, in order.

        With ``reraise=False`` a failing task's exception is captured in
        its outcome's ``error`` (traceback text) and the other tasks
        still complete — including when a worker process dies, which
        surfaces as a ``BrokenProcessPool`` error on the affected task
        rather than a hang.  With ``reraise=True`` the first failure
        (in task order, after any retries) propagates to the caller.
        """
        outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)
        pending: List[int] = []
        for idx, task in enumerate(tasks):
            payload = (
                self.cache.get(task.cache_key)
                if self.cache is not None and task.cache_key
                else _MISS
            )
            if payload is not _MISS:
                value = task.decode(payload) if task.decode else payload
                outcomes[idx] = TaskOutcome(task.key, value=value, cached=True)
                continue
            journal_key = self._journal_key(task)
            if journal_key is not None and journal_key in self.journal:
                payload = self.journal.get(journal_key)
                value = task.decode(payload) if task.decode else payload
                self.journal.skipped += 1
                outcomes[idx] = TaskOutcome(task.key, value=value, journaled=True)
                continue
            pending.append(idx)

        if pending:
            # workers > 1 always means worker processes — even for one
            # task — so a crashing task can never take the parent down.
            if self.workers > 1:
                self._run_parallel(tasks, pending, outcomes, reraise)
            else:
                self._run_serial(tasks, pending, outcomes, reraise)

        for idx in pending:
            task, outcome = tasks[idx], outcomes[idx]
            if outcome.ok and self.cache is not None and task.cache_key:
                payload = task.encode(outcome.value) if task.encode else outcome.value
                self.cache.put(task.cache_key, payload)
        return outcomes  # type: ignore[return-value]

    @property
    def _max_attempts(self) -> int:
        return (self.retry.max_retries if self.retry is not None else 0) + 1

    def _journal_key(self, task: Task) -> Optional[str]:
        if self.journal is None:
            return None
        return task.journal_key or task.cache_key

    def _journal_record(self, task: Task, value: Any) -> None:
        """Durably append a completed task the moment it succeeds.

        Called per task (serial) or per retry round (parallel), not
        after the whole batch — the crash-safety granularity the journal
        exists for.
        """
        journal_key = self._journal_key(task)
        if journal_key is None:
            return
        payload = task.encode(value) if task.encode else value
        self.journal.record(journal_key, payload)

    def _journal_replay(self, task: Task) -> Optional[TaskOutcome]:
        """Re-check the (refreshed) journal for a concurrently completed task.

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
        return TaskOutcome(task.key, value=value, journaled=True)

    def _run_serial(self, tasks, pending, outcomes, reraise) -> None:
        for idx in pending:
            task = tasks[idx]
            replayed = self._journal_replay(task)
            if replayed is not None:
                outcomes[idx] = replayed
                continue
            start = time.perf_counter()
            for attempt in range(1, self._max_attempts + 1):
                try:
                    value = task.fn(*task.args, **task.kwargs)
                    outcomes[idx] = TaskOutcome(
                        task.key,
                        value=value,
                        seconds=time.perf_counter() - start,
                        attempts=attempt,
                    )
                    self._journal_record(task, value)
                    break
                except Exception:
                    if attempt < self._max_attempts:
                        logger.warning(
                            "task %r failed (attempt %d/%d); retrying",
                            task.key,
                            attempt,
                            self._max_attempts,
                        )
                        time.sleep(self.retry.delay(attempt, token=task.key))
                        continue
                    if reraise:
                        raise
                    outcomes[idx] = TaskOutcome(
                        task.key,
                        error=traceback.format_exc(limit=8),
                        seconds=time.perf_counter() - start,
                        attempts=attempt,
                    )

    # -- parallel path ----------------------------------------------------
    def _make_pool(self, n_tasks: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=min(self.workers, max(1, n_tasks)))

    @staticmethod
    def _destroy_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a (possibly broken or hung) pool down without blocking.

        Worker processes are terminated explicitly: after a timeout the
        worker is still busy with the abandoned task, and ``shutdown``
        alone would leave it running until interpreter exit.  The
        process list is snapshotted *before* ``shutdown``, which clears
        the pool's ``_processes`` table.
        """
        procs = list((getattr(pool, "_processes", None) or {}).values())
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - defensive
            pass
        for proc in procs:
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - already gone
                pass
        for proc in procs:
            try:
                proc.join(timeout=2.0)
            except Exception:  # pragma: no cover - already gone
                pass

    def _effective_timeout(self, task: Task) -> Optional[float]:
        return task.timeout if task.timeout is not None else self.task_timeout

    def _run_round(self, tasks, todo, pool, rebuilds_left):
        """Execute each task in ``todo`` exactly one attempt.

        Returns ``(results, pool, rebuilds_left)`` where ``results`` maps
        task index to ``(ok, value_or_exception)``.  A broken pool or a
        timed-out task triggers pool reconstruction; sibling tasks whose
        futures were lost are resubmitted within the same round (their
        attempt has not been consumed by someone else's failure).
        """
        results: Dict[int, Tuple[bool, Any]] = {}
        waiting = list(todo)
        while waiting:
            futures = {}
            submit_broken = False
            submitted_at = time.monotonic()
            for idx in waiting:
                task = tasks[idx]
                blob = _serializer.dumps((task.fn, task.args, task.kwargs))
                try:
                    futures[idx] = pool.submit(_invoke_payload, blob)
                except BrokenExecutor as exc:
                    # Pool already dead at submit time; record the failure
                    # and force a rebuild below.
                    results[idx] = (False, exc)
                    submit_broken = True
            order = [idx for idx in waiting if idx in futures]
            waiting = []
            broken_at: Optional[int] = None
            for pos, idx in enumerate(order):
                timeout = self._effective_timeout(tasks[idx])
                try:
                    if timeout is None:
                        raw = futures[idx].result()
                    else:
                        remaining = submitted_at + timeout - time.monotonic()
                        raw = futures[idx].result(timeout=max(remaining, 0.0))
                    results[idx] = (True, _serializer.loads(raw))
                except _FutureTimeout:
                    results[idx] = (
                        False,
                        TimeoutError(
                            f"task {tasks[idx].key!r} exceeded its "
                            f"{timeout}s timeout"
                        ),
                    )
                    broken_at = pos
                    break
                except BrokenExecutor as exc:
                    results[idx] = (False, exc)
                    broken_at = pos
                    break
                except Exception as exc:
                    results[idx] = (False, exc)
            if broken_at is None and not submit_broken and not waiting:
                break
            if broken_at is not None:
                # Reap the siblings: futures that already finished keep
                # their results; the rest are collateral of the broken
                # pool/hung worker and go back for a free resubmission.
                for idx in order[broken_at + 1:]:
                    fut = futures[idx]
                    if fut.done():
                        try:
                            results[idx] = (
                                True,
                                _serializer.loads(fut.result(timeout=0)),
                            )
                        except (BrokenExecutor, _FutureTimeout):
                            waiting.append(idx)
                        except Exception as exc:
                            results[idx] = (False, exc)
                    else:
                        waiting.append(idx)
            self._destroy_pool(pool)
            if waiting and rebuilds_left <= 0:
                err = RuntimeError(
                    "worker pool broke repeatedly "
                    f"(max_pool_rebuilds={self.max_pool_rebuilds} exhausted); "
                    "giving up on the remaining tasks of this round"
                )
                for idx in waiting:
                    results[idx] = (False, err)
                waiting = []
            rebuilds_left -= 1
            pool = self._make_pool(max(1, len(waiting) or len(todo)))
            if waiting:
                logger.warning(
                    "worker pool rebuilt; resubmitting %d in-flight task(s)",
                    len(waiting),
                )
        return results, pool, rebuilds_left

    def _round_chunk_size(self, n_todo: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        return adaptive_chunk_size(n_todo, self.workers)

    def _chunk_task(self, tasks, idxs: List[int]) -> Task:
        """Synthetic task wrapping a chunk of real tasks for one submission.

        The chunk timeout is the sum of the members' effective timeouts
        (``None`` as soon as any member is unbounded): the chunk is the
        smallest unit a hung worker can be reclaimed at.
        """
        blobs = [
            _serializer.dumps((tasks[i].fn, tasks[i].args, tasks[i].kwargs))
            for i in idxs
        ]
        timeout: Optional[float] = 0.0
        for i in idxs:
            member = self._effective_timeout(tasks[i])
            if member is None:
                timeout = None
                break
            timeout += member
        return Task(
            key=f"chunk[{tasks[idxs[0]].key}..{tasks[idxs[-1]].key}]",
            fn=_run_task_chunk,
            args=(blobs,),
            timeout=timeout,
        )

    def _run_chunked_round(self, tasks, todo, pool, rebuilds_left):
        """One attempt for every task in ``todo``, chunked submissions.

        Expands the chunk-level results of :meth:`_run_round` back to
        per-task ``(ok, payload)`` / ``(False, exc, text)`` entries.  A
        transport-level chunk failure (broken pool after rebuild budget,
        chunk timeout) charges every member of the chunk.
        """
        size = self._round_chunk_size(len(todo))
        if size <= 1:
            return self._run_round(tasks, todo, pool, rebuilds_left)
        chunks = [todo[i:i + size] for i in range(0, len(todo), size)]
        meta = [self._chunk_task(tasks, chunk) for chunk in chunks]
        raw, pool, rebuilds_left = self._run_round(
            meta, list(range(len(meta))), pool, rebuilds_left
        )
        results: Dict[int, Tuple] = {}
        for ci, chunk in enumerate(chunks):
            ok, payload = raw[ci]
            if ok:
                for idx, entry in zip(chunk, payload):
                    results[idx] = tuple(entry)
            else:
                for idx in chunk:
                    results[idx] = (False, payload)
        return results, pool, rebuilds_left

    def _run_parallel(self, tasks, pending, outcomes, reraise) -> None:
        start = time.perf_counter()
        todo = list(pending)
        failures: Dict[int, Tuple[BaseException, Optional[str]]] = {}
        attempts = {idx: 0 for idx in pending}
        pool = self._make_pool(len(pending))
        rebuilds_left = self.max_pool_rebuilds
        try:
            round_no = 1
            while todo:
                if round_no > 1:
                    time.sleep(self.retry.delay(round_no - 1))
                if self.journal is not None:
                    # Round-granularity work sharing: drop tasks a
                    # sibling executor journaled since the last round.
                    still: List[int] = []
                    for idx in todo:
                        replayed = self._journal_replay(tasks[idx])
                        if replayed is not None:
                            outcomes[idx] = replayed
                        else:
                            still.append(idx)
                    todo = still
                    if not todo:
                        break
                results, pool, rebuilds_left = self._run_chunked_round(
                    tasks, todo, pool, rebuilds_left
                )
                retry_next: List[int] = []
                for idx in todo:
                    attempts[idx] += 1
                    entry = results[idx]
                    if entry[0]:
                        outcomes[idx] = TaskOutcome(
                            tasks[idx].key,
                            value=entry[1],
                            seconds=time.perf_counter() - start,
                            attempts=attempts[idx],
                        )
                        self._journal_record(tasks[idx], entry[1])
                    elif round_no < self._max_attempts:
                        logger.warning(
                            "task %r failed (attempt %d/%d); retrying",
                            tasks[idx].key,
                            round_no,
                            self._max_attempts,
                        )
                        retry_next.append(idx)
                    else:
                        failures[idx] = (
                            entry[1],
                            entry[2] if len(entry) > 2 else None,
                        )
                todo = retry_next
                round_no += 1
        finally:
            # The current pool is healthy/idle on every exit path (hung
            # or broken pools were already destroyed and replaced inside
            # _run_round), so a graceful shutdown cannot block.
            pool.shutdown(wait=True, cancel_futures=True)

        for idx, (exc, chunk_text) in failures.items():
            if reraise:
                raise exc
            text = chunk_text or "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            )
            outcomes[idx] = TaskOutcome(
                tasks[idx].key,
                error=text,
                seconds=time.perf_counter() - start,
                attempts=attempts[idx],
            )
