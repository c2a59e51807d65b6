"""Worker loop: lease chunks, run lifetime points, journal the results.

A :class:`ServiceWorker` drains jobs from a :class:`~repro.service.jobs.JobStore`
it shares with the HTTP server and any number of sibling workers.  The
loop per claimed chunk:

1. rebuild the job's framework from its spec (cached per job — training
   happens once per worker process, then every point reuses it);
2. for each point index in the chunk: skip it if another worker already
   journaled its key — success *or* failure record (``journal.refresh()``
   picks up siblings' appends incrementally), otherwise run the lifetime
   simulation — retrying transient failures on the seeded-jitter
   :class:`~repro.core.executor.RetryPolicy` schedule — and
   ``journal.record`` the result (exactly-once across processes);
3. renew the chunk's lease after every point (the heartbeat that keeps
   work stealing at bay), and stop early if the job was cancelled or
   the lease was lost to a thief;
4. complete the chunk and finalize the job if it was the last one.

Poison work is contained, not fatal: a point whose retries are
exhausted no longer fails the whole job.  The worker keeps executing
the rest of the chunk (healthy neighbours still journal their results),
then reports the chunk to :meth:`LeaseBoard.fail` — which either
returns it to ``pending`` for another attempt or, once the attempt
budget is spent, quarantines it.  The quarantining worker journals one
structured failure record per dead point, and
:meth:`~repro.service.jobs.JobStore.finalize_if_complete` assembles a
partial report instead of hanging forever.

Because every point is derivation-seeded and content-hash keyed, *any*
interleaving of workers — including crashes, steals and duplicated
execution — produces a journal whose entries are bit-identical to a
serial campaign's.  The worker needs no network: it operates directly
on the shared jobs directory, which is what makes ``repro worker
--jobs DIR`` work across machines over a shared filesystem.
"""

from __future__ import annotations

import hashlib
import logging
import os
import socket
import time
from typing import Dict, Optional

from repro.core.executor import ResultCache, RetryPolicy
from repro.core.framework import AgingAwareFramework
from repro.service.jobs import CampaignJobSpec, JobStore, failure_key

logger = logging.getLogger(__name__)


def default_worker_id() -> str:
    """Host-qualified id so leases are attributable across machines."""
    return f"{socket.gethostname()}-{os.getpid()}"


class ServiceWorker:
    """One draining loop over a shared job store."""

    def __init__(
        self,
        store: JobStore,
        worker_id: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        use_cache: bool = True,
        max_cached_frameworks: int = 2,
    ) -> None:
        self.store = store
        self.worker_id = worker_id or default_worker_id()
        # Seeded jitter decorrelates simultaneous retries across the
        # fleet: each worker derives its own deterministic schedule, so
        # a shared-cache hiccup does not produce a synchronized stampede.
        if retry is None:
            seed = int.from_bytes(
                hashlib.sha256(self.worker_id.encode("utf-8")).digest()[:4], "big"
            )
            retry = RetryPolicy(
                max_retries=2, backoff_base=0.05, jitter=0.5, jitter_seed=seed
            )
        self.retry = retry
        self.cache: Optional[ResultCache] = store.cache() if use_cache else None
        #: Points actually simulated by this worker (not replayed/stolen).
        self.points_executed = 0
        self.chunks_completed = 0
        #: Drain-loop iterations that raised in a row (store unreachable,
        #: unrecoverable corruption, ...).  Reset on every clean pass.
        self.consecutive_failures = 0
        #: Give up draining after this many consecutive loop failures.
        self.max_consecutive_failures = 5
        self._frameworks: Dict[str, AgingAwareFramework] = {}
        self._max_cached = max(1, max_cached_frameworks)

    # -- framework reuse ---------------------------------------------------
    def _framework(self, job_id: str, spec: CampaignJobSpec) -> AgingAwareFramework:
        if job_id not in self._frameworks:
            if len(self._frameworks) >= self._max_cached:
                self._frameworks.pop(next(iter(self._frameworks)))
            self._frameworks[job_id] = spec.build_framework()
        return self._frameworks[job_id]

    # -- the drain loop ----------------------------------------------------
    def run_once(self) -> bool:
        """Claim and execute at most one chunk; False when idle."""
        for job_id in self.store.list_ids():
            if not self.store.is_active(job_id):
                continue
            lease = self.store.leases(job_id).claim(self.worker_id)
            if lease is None:
                # Every chunk is leased or done; opportunistically
                # finalize (covers the race where the last chunk's
                # worker died right after journaling its points).
                self.store.finalize_if_complete(job_id)
                continue
            if lease.stolen:
                logger.info(
                    "worker %s: stole expired chunk %d of %s",
                    self.worker_id,
                    lease.chunk_id,
                    job_id,
                )
            self._execute_chunk(job_id, lease)
            return True
        return False

    def _note_loop_failure(self, exc: Exception) -> float:
        """Count a drain-loop failure; return the bounded backoff delay.

        An unreachable store (network filesystem down, directory briefly
        gone) or unrecoverable corruption must not crash-loop the
        worker: log, back off on the seeded-jitter schedule (bounded so
        a long outage never produces an unbounded sleep), and let the
        caller decide whether to keep going.
        """
        self.consecutive_failures += 1
        logger.warning(
            "worker %s: drain-loop failure #%d: %s",
            self.worker_id,
            self.consecutive_failures,
            exc,
        )
        failures = min(self.consecutive_failures, 6)
        return min(self.retry.delay(failures, token=self.worker_id), 30.0)

    def drain(self) -> int:
        """Execute chunks until no claimable work remains; #points run.

        Loop failures are retried with bounded jittered backoff; after
        ``max_consecutive_failures`` in a row the drain gives up (the
        count stays set for the caller's exit message).
        """
        before = self.points_executed
        while True:
            try:
                busy = self.run_once()
            except Exception as exc:
                delay = self._note_loop_failure(exc)
                if self.consecutive_failures >= self.max_consecutive_failures:
                    logger.error(
                        "worker %s: giving up after %d consecutive failures",
                        self.worker_id,
                        self.consecutive_failures,
                    )
                    break
                time.sleep(delay)
                continue
            self.consecutive_failures = 0
            if not busy:
                break
        return self.points_executed - before

    def run_forever(self, poll_interval: float = 0.5, stop=None) -> None:
        """Poll the store until ``stop`` (an Event-like) is set.

        Never exits on error: failures back off (bounded, jittered) and
        the loop keeps polling — a service worker outlives outages.
        """
        while stop is None or not stop.is_set():
            try:
                busy = self.run_once()
            except Exception as exc:
                time.sleep(self._note_loop_failure(exc))
                continue
            self.consecutive_failures = 0
            if not busy:
                time.sleep(poll_interval)

    # -- chunk execution ---------------------------------------------------
    def _execute_chunk(self, job_id: str, lease) -> None:
        document = self.store.load(job_id)
        spec = CampaignJobSpec.from_dict(document["spec"])
        leases = self.store.leases(job_id)
        journal = self.store.journal(job_id)
        self.store.mark_running(job_id)
        try:
            framework = self._framework(job_id, spec)
        except Exception as exc:
            # A spec that cannot build will fail identically everywhere:
            # fail the job instead of bouncing the chunk between workers.
            logger.exception("worker %s: job %s is unbuildable", self.worker_id, job_id)
            self.store.mark_failed(job_id, f"framework build failed: {exc}")
            leases.release(lease.chunk_id, self.worker_id)
            return
        points = spec.build_points()
        failed = []  # (key, point, exc): poison points seen this attempt
        for index in document["chunks"][lease.chunk_id]:
            if not self.store.is_active(job_id):
                leases.release(lease.chunk_id, self.worker_id)
                return
            key = document["points"][index]["key"]
            journal.refresh()
            if key in journal or failure_key(key) in journal:
                continue  # a sibling (or a previous life) resolved it
            point = points[index]
            try:
                result = self._run_point(framework, spec, point, key)
            except Exception as exc:
                # Poison point: keep executing the rest of the chunk so
                # healthy neighbours still journal their results; report
                # the chunk once at the end and let the lease board
                # decide between another attempt and quarantine.
                logger.exception(
                    "worker %s: point %s of %s failed permanently",
                    self.worker_id,
                    point.name,
                    job_id,
                )
                failed.append((key, point, exc))
                if not leases.renew(lease.chunk_id, self.worker_id):
                    self._lost_lease(lease, job_id)
                    return
                continue
            if not self.store.is_active(job_id):
                # Cancelled while simulating: drop the result — terminal
                # states admit no further journal writes.
                leases.release(lease.chunk_id, self.worker_id)
                return
            journal.record(key, result.to_dict())
            self.points_executed += 1
            if not leases.renew(lease.chunk_id, self.worker_id):
                # Lease stolen mid-chunk (we stalled past the TTL).  The
                # points journaled so far are safe; leave the rest to
                # the thief instead of double-running them.
                self._lost_lease(lease, job_id)
                return
        if failed:
            summary = (
                f"{len(failed)} point(s) failed; "
                f"first: {failed[0][1].name}: {failed[0][2]}"
            )
            if leases.fail(lease.chunk_id, self.worker_id, error=summary):
                # Attempt budget spent — the chunk is quarantined and
                # this worker owns writing the terminal failure records.
                for key, point, exc in failed:
                    journal.record(
                        failure_key(key),
                        {
                            "point": point.name,
                            "error": str(exc),
                            "worker": self.worker_id,
                            "attempts": lease.attempts,
                        },
                    )
                self.store.finalize_if_complete(job_id)
            return
        leases.complete(lease.chunk_id, self.worker_id)
        self.chunks_completed += 1
        self.store.finalize_if_complete(job_id)

    def _lost_lease(self, lease, job_id: str) -> None:
        logger.warning(
            "worker %s: lost lease on chunk %d of %s",
            self.worker_id,
            lease.chunk_id,
            job_id,
        )

    def _run_point(self, framework, spec: CampaignJobSpec, point, key: str):
        """One lifetime simulation with seeded-jitter retries."""
        return self.retry.call(
            lambda: framework.run_scenario(
                spec.scenario,
                repeat=spec.repeat,
                cache=self.cache,
                fault_schedule=point.schedule,
                degradation=point.degradation,
            ),
            token=f"{self.worker_id}/{key}",
        )


def worker_main(
    jobs_root,
    drain: bool = False,
    worker_id: Optional[str] = None,
    lease_ttl: float = 60.0,
    poll_interval: float = 0.5,
    use_cache: bool = True,
) -> int:
    """Process entry point (``repro worker`` and spawned service workers)."""
    store = JobStore(jobs_root, lease_ttl=lease_ttl)
    worker = ServiceWorker(store, worker_id=worker_id, use_cache=use_cache)
    if drain:
        executed = worker.drain()
        logger.info(
            "worker %s: drained %d point(s) across %d chunk(s); "
            "%d consecutive loop failure(s) at exit",
            worker.worker_id,
            executed,
            worker.chunks_completed,
            worker.consecutive_failures,
        )
        return 1 if worker.consecutive_failures else 0
    worker.run_forever(poll_interval=poll_interval)
    return 0  # pragma: no cover - run_forever only exits via stop/signal
