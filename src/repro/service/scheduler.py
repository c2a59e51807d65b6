"""Chunk leasing with TTL expiry, work stealing and poison quarantine.

The :class:`LeaseBoard` is a tiny on-disk lease table — one entry per
chunk of grid-point indices — that lets any number of worker processes
(or hosts, over a shared filesystem) partition a job without a central
scheduler process.  Workers *claim* a chunk, *renew* its lease while
executing (a heartbeat), and *complete* it when every point is
journaled.  A worker that dies simply stops renewing: once the lease
TTL passes, an idle worker **steals** the chunk and re-runs it.

Leases are an optimization, never the correctness mechanism.  Points
are idempotent (derivation-seeded, content-hash keyed) and the shared
:class:`~repro.core.checkpoint.RunJournal` admits each key exactly
once, so the worst a stale lease can cause is duplicate *computation* —
never duplicate or divergent *results*.  That separation is what keeps
the failure-mode analysis short: lose the lease file entirely and the
job still finishes correctly, just with more re-execution.

Two failure-containment layers ride on top of the basic lifecycle:

* **Poison-work quarantine.**  Every claim (including a steal) counts
  as an *attempt*.  A chunk that keeps failing — a worker reports the
  failure via :meth:`fail`, or its holders keep dying until a thief
  finds the attempt budget spent — moves to a terminal ``quarantined``
  state after ``max_attempts`` tries instead of being re-leased
  forever.  A single deterministically-crashing point can therefore
  never stall a job: its chunk is quarantined, the job finalizes with
  the surviving points, and the poison point is reported, not retried.

* **Corruption recovery.**  The table is written through
  :func:`~repro.io.save_json_guarded` (atomic rename + embedded
  SHA-256), so a torn or bit-rotted file is *detected* on load; when a
  ``recover`` callback is installed (the :class:`~repro.service.jobs
  .JobStore` wires one up), the table is rebuilt from the flock-guarded
  journal — the single source of truth — and the job keeps going.

Every read-modify-write of the table runs under the advisory
:func:`~repro.io.file_lock`, and the table itself is rewritten
atomically, so a killed worker can neither corrupt the file nor hold a
lock forever.
"""

from __future__ import annotations

import logging
import pathlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.exceptions import ConfigurationError, CorruptStateError, ServiceError
from repro.io import file_lock, load_json_guarded, save_json_guarded

logger = logging.getLogger(__name__)

#: Lease table format version (2: guarded checksum wrapper, per-chunk
#: attempt counts, the quarantined state).
LEASE_SCHEMA = 2

_PENDING = "pending"
_LEASED = "leased"
_DONE = "done"
_QUARANTINED = "quarantined"

#: Claims (first lease, re-lease after failure, steal) a chunk may
#: consume before it is quarantined instead of re-leased.
DEFAULT_MAX_ATTEMPTS = 3


def fresh_entry(state: str = _PENDING, error: Optional[str] = None) -> dict:
    """A lease-table entry in its unleased form."""
    return {
        "state": state,
        "worker": None,
        "deadline": None,
        "attempts": 0,
        "error": error,
    }


@dataclass(frozen=True)
class Lease:
    """A claimed chunk: execute, renew while working, then complete."""

    chunk_id: int
    worker_id: str
    deadline: float
    #: True when this claim took over another worker's expired lease.
    stolen: bool = False
    #: How many claims (this one included) the chunk has consumed.
    attempts: int = 1


class LeaseBoard:
    """On-disk lease table over a job's chunks.

    The table is created once at submit time (:meth:`initialize`) with
    every chunk ``pending``; thereafter all transitions go through
    :meth:`claim` / :meth:`renew` / :meth:`complete` / :meth:`release`
    / :meth:`fail`, each a single locked read-modify-write.  ``clock``
    is injectable so tests can expire leases without sleeping or skew
    one worker's view of time.  ``recover``
    — when given — turns an unreadable table into a rebuilt one instead
    of an error.
    """

    def __init__(
        self,
        path,
        ttl: float = 60.0,
        clock: Optional[Callable[[], float]] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        recover: Optional[Callable[[], Dict[str, dict]]] = None,
    ) -> None:
        if ttl <= 0:
            raise ConfigurationError(f"lease ttl must be > 0, got {ttl}")
        if max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        self.path = pathlib.Path(path)
        self.ttl = float(ttl)
        self.max_attempts = int(max_attempts)
        self._clock = clock if clock is not None else time.time
        self._recover = recover
        #: Times this instance rebuilt a corrupt/unreadable table.
        self.recovered = 0

    @classmethod
    def initialize(cls, path, n_chunks: int) -> "LeaseBoard":
        """Create the table with ``n_chunks`` pending chunks."""
        if n_chunks < 1:
            raise ConfigurationError(f"need at least one chunk, got {n_chunks}")
        table = {
            "schema": LEASE_SCHEMA,
            "chunks": {str(i): fresh_entry() for i in range(n_chunks)},
            "stolen": 0,
        }
        save_json_guarded(table, path)
        return cls(path)

    # -- table I/O (callers hold the lock) ---------------------------------
    def _lock(self):
        return file_lock(self.path.with_name(self.path.name + ".lock"))

    def _load(self) -> dict:
        if not self.path.exists():
            raise ServiceError(f"no lease table at {self.path}")
        try:
            table = load_json_guarded(self.path)
            if not isinstance(table, dict) or table.get("schema") != LEASE_SCHEMA:
                raise CorruptStateError(
                    f"unknown lease table schema "
                    f"{table.get('schema') if isinstance(table, dict) else table!r}"
                )
        except CorruptStateError as exc:
            if self._recover is None:
                raise ServiceError(
                    f"unreadable lease table {self.path}: {exc}"
                ) from exc
            logger.warning(
                "lease table %s unreadable (%s); rebuilding from the journal",
                self.path,
                exc,
            )
            table = {
                "schema": LEASE_SCHEMA,
                "chunks": self._recover(),
                # The steal counter is observability, not correctness;
                # a rebuild restarts it.
                "stolen": 0,
            }
            self.recovered += 1
            self._save(table)
        return table

    def _save(self, table: dict) -> None:
        save_json_guarded(table, self.path)

    # -- lease lifecycle ---------------------------------------------------
    def claim(self, worker_id: str) -> Optional[Lease]:
        """Lease the first pending — or expired — chunk, if any.

        Expired leases (their holder stopped heartbeating for longer
        than the TTL) are stolen in preference order after all pending
        chunks, so a healthy fleet drains fresh work before re-running
        a dead worker's chunk.  Each claim consumes one attempt; a
        candidate whose budget is already spent is quarantined on the
        spot and skipped.
        """
        now = self._clock()
        with self._lock():
            table = self._load()
            chunks = table["chunks"]
            candidate = None
            stolen = False
            quarantined_now = False
            for chunk_id in sorted(chunks, key=int):
                entry = chunks[chunk_id]
                if entry["state"] != _PENDING:
                    continue
                if self._spent(entry):
                    self._quarantine(entry)
                    quarantined_now = True
                    continue
                candidate = chunk_id
                break
            if candidate is None:
                for chunk_id in sorted(chunks, key=int):
                    entry = chunks[chunk_id]
                    if entry["state"] != _LEASED or entry["deadline"] >= now:
                        continue
                    if self._spent(entry):
                        # The holder died (or stalled) on the chunk's
                        # last allowed attempt: poison, not bad luck.
                        self._quarantine(entry)
                        quarantined_now = True
                        continue
                    candidate, stolen = chunk_id, True
                    break
            if candidate is None:
                if quarantined_now:
                    self._save(table)
                return None
            entry = chunks[candidate]
            deadline = now + self.ttl
            attempts = int(entry.get("attempts", 0)) + 1
            chunks[candidate] = {
                "state": _LEASED,
                "worker": worker_id,
                "deadline": deadline,
                "attempts": attempts,
                "error": entry.get("error"),
            }
            if stolen:
                table["stolen"] = int(table.get("stolen", 0)) + 1
            self._save(table)
        return Lease(
            chunk_id=int(candidate),
            worker_id=worker_id,
            deadline=deadline,
            stolen=stolen,
            attempts=attempts,
        )

    def _spent(self, entry: dict) -> bool:
        return int(entry.get("attempts", 0)) >= self.max_attempts

    @staticmethod
    def _quarantine(entry: dict, error: Optional[str] = None) -> None:
        entry["state"] = _QUARANTINED
        entry["deadline"] = None
        if error is not None:
            entry["error"] = error
        logger.warning(
            "quarantining chunk after %s attempt(s): %s",
            entry.get("attempts"),
            entry.get("error") or "holder died repeatedly",
        )

    def renew(self, chunk_id: int, worker_id: str) -> bool:
        """Heartbeat: extend the lease; False if it was lost (stolen)."""
        with self._lock():
            table = self._load()
            entry = table["chunks"].get(str(chunk_id))
            if (
                entry is None
                or entry["state"] != _LEASED
                or entry["worker"] != worker_id
            ):
                return False
            entry["deadline"] = self._clock() + self.ttl
            self._save(table)
        return True

    def complete(self, chunk_id: int, worker_id: str) -> None:
        """Mark a chunk done (first finisher wins; stale holders no-op)."""
        with self._lock():
            table = self._load()
            entry = table["chunks"].get(str(chunk_id))
            if entry is None or entry["state"] == _DONE:
                return
            # A stale holder completing after a steal is fine: the
            # journal already de-duplicated the points themselves.
            table["chunks"][str(chunk_id)] = {
                "state": _DONE,
                "worker": worker_id,
                "deadline": None,
                "attempts": int(entry.get("attempts", 0)),
                "error": None,
            }
            self._save(table)

    def release(self, chunk_id: int, worker_id: str) -> None:
        """Give a held chunk back (e.g. on cancel) without completing it."""
        with self._lock():
            table = self._load()
            entry = table["chunks"].get(str(chunk_id))
            if (
                entry is None
                or entry["state"] != _LEASED
                or entry["worker"] != worker_id
            ):
                return
            table["chunks"][str(chunk_id)] = {
                "state": _PENDING,
                "worker": None,
                "deadline": None,
                "attempts": int(entry.get("attempts", 0)),
                "error": entry.get("error"),
            }
            self._save(table)

    def fail(self, chunk_id: int, worker_id: str, error: str) -> bool:
        """Report a failed execution attempt; True if now quarantined.

        The holder calls this when a point in the chunk failed
        permanently (retries exhausted).  While the attempt budget
        lasts the chunk goes back to ``pending`` for another worker (or
        another day); once it is spent the chunk is quarantined with
        the failure recorded — the caller then journals structured
        failure records so the job can finalize without it.
        """
        with self._lock():
            table = self._load()
            entry = table["chunks"].get(str(chunk_id))
            if (
                entry is None
                or entry["state"] != _LEASED
                or entry["worker"] != worker_id
            ):
                # Lost the lease while failing: the thief owns the
                # chunk's fate now.  Quarantine state, if any, will
                # come from its attempts.
                return entry is not None and entry["state"] == _QUARANTINED
            entry["error"] = str(error)
            if self._spent(entry):
                self._quarantine(entry)
                quarantined = True
            else:
                entry["state"] = _PENDING
                entry["worker"] = None
                entry["deadline"] = None
                quarantined = False
            self._save(table)
        return quarantined

    # -- introspection -----------------------------------------------------
    def snapshot(self) -> Dict[str, int]:
        """Summary counts: pending/leased/expired/done/quarantined/stolen."""
        now = self._clock()
        counts = {
            "pending": 0,
            "leased": 0,
            "expired": 0,
            "done": 0,
            "quarantined": 0,
        }
        table = self._load()
        for entry in table["chunks"].values():
            if entry["state"] == _LEASED and entry["deadline"] < now:
                counts["expired"] += 1
            else:
                counts[entry["state"]] += 1
        counts["stolen"] = int(table.get("stolen", 0))
        return counts

    def quarantined_chunks(self) -> Dict[int, dict]:
        """Quarantined chunk ids -> {attempts, error, worker}."""
        table = self._load()
        return {
            int(chunk_id): {
                "attempts": int(entry.get("attempts", 0)),
                "error": entry.get("error"),
                "worker": entry.get("worker"),
            }
            for chunk_id, entry in table["chunks"].items()
            if entry["state"] == _QUARANTINED
        }

    def all_done(self) -> bool:
        """True when every chunk completed successfully."""
        table = self._load()
        return all(e["state"] == _DONE for e in table["chunks"].values())

    def all_resolved(self) -> bool:
        """True when no chunk can make further progress (done/quarantined)."""
        table = self._load()
        return all(
            e["state"] in (_DONE, _QUARANTINED)
            for e in table["chunks"].values()
        )
