"""Persistent campaign jobs: specs, the on-disk store, and finalization.

A *job* is one fault campaign turned into a durable, restartable unit of
work.  Submitting a :class:`CampaignJobSpec` materializes a directory
under the store root::

    <root>/<job-id>/
        job.json      spec + grid metadata (point names, content-hash keys,
                      lease chunking) — immutable after submit
        state.json    status machine: queued -> running -> done
                      (or cancelled / failed)
        journal.jsonl shared :class:`~repro.core.checkpoint.RunJournal` of
                      completed points (the ground truth of progress)
        leases.json   :class:`~repro.service.scheduler.LeaseBoard` chunk
                      lease table (an optimization, never the correctness
                      mechanism)
        result.json   the finalized ``SurvivabilityReport`` (written once,
                      when every point is journaled)

Job ids are content hashes of the spec, so re-submitting the same
campaign **resumes** it instead of duplicating work — the same
idempotence the result cache gives individual scenario runs.  Any
number of workers (processes today, hosts over a shared filesystem
tomorrow) drain one job through the journal; the finalized report is
assembled from journal entries in grid order, which makes it
bit-identical to a serial :class:`~repro.robustness.FaultCampaign` run
over the same spec.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import logging

from repro.core.checkpoint import RunJournal
from repro.core.executor import ResultCache, adaptive_chunk_size, fingerprint
from repro.core.framework import AgingAwareFramework
from repro.core.presets import PRESETS
from repro.core.results import LifetimeResult
from repro.core.scenarios import SCENARIOS
from repro.exceptions import ConfigurationError, CorruptStateError, ServiceError
from repro.io import (
    file_lock,
    load_json,
    load_json_guarded,
    save_json_atomic,
    save_json_guarded,
)
from repro.robustness.campaign import (
    CampaignPoint,
    FaultCampaign,
    build_grid,
    record_from_result,
)
from repro.robustness.report import SurvivabilityRecord, SurvivabilityReport
from repro.service.scheduler import DEFAULT_MAX_ATTEMPTS, LeaseBoard, fresh_entry

logger = logging.getLogger(__name__)

#: Job document format version.
JOB_SCHEMA = 1

#: Terminal job states (no further execution happens).
#: ``completed_with_failures`` is the graceful-degradation terminal:
#: every point is resolved, but some only as quarantined failures.
TERMINAL_STATES = ("done", "completed_with_failures", "cancelled", "failed")


def failure_key(point_key: str) -> str:
    """Journal key under which a point's *failure record* is stored.

    Success results live under the point's content-hash key; terminal
    failures (quarantined poison work) live under this derived key, so
    the journal stays the single source of truth for both outcomes
    while a later healthy re-run of the same spec (fresh job directory)
    is still free to succeed.
    """
    return point_key + "#failed"


@dataclass(frozen=True)
class CampaignJobSpec:
    """Everything needed to reconstruct a campaign grid deterministically.

    The spec is the job's identity: its content hash is the job id, and
    every worker rebuilds the identical framework and grid from it, so
    point keys (and therefore journal/cache entries) agree across
    processes and hosts without shipping any Python objects.
    """

    preset: str = "blobs-mini"
    fast: bool = True
    seed: Optional[int] = None
    scenario: str = "st+at"
    repeat: int = 0
    kinds: Tuple[str, ...] = ("stuck_at",)
    rates: Tuple[float, ...] = (0.005, 0.01, 0.02)
    window: int = 1
    with_degradation: bool = True
    include_baseline: bool = True
    #: Grid points per lease chunk (``None`` = auto from grid size).
    chunk_points: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kinds", tuple(self.kinds))
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))

    def validate(self) -> None:
        if self.preset not in PRESETS:
            raise ConfigurationError(
                f"unknown preset {self.preset!r}; choose from {sorted(PRESETS)}"
            )
        if self.scenario not in SCENARIOS:
            raise ConfigurationError(
                f"unknown scenario {self.scenario!r}; choose from {sorted(SCENARIOS)}"
            )
        if self.repeat < 0:
            raise ConfigurationError(f"repeat must be >= 0, got {self.repeat}")
        if self.chunk_points is not None and self.chunk_points < 1:
            raise ConfigurationError(
                f"chunk_points must be >= 1 (or None), got {self.chunk_points}"
            )
        self.build_points()  # build_grid validates kinds/rates/window

    def to_dict(self) -> dict:
        return {
            "preset": self.preset,
            "fast": self.fast,
            "seed": self.seed,
            "scenario": self.scenario,
            "repeat": self.repeat,
            "kinds": list(self.kinds),
            "rates": list(self.rates),
            "window": self.window,
            "with_degradation": self.with_degradation,
            "include_baseline": self.include_baseline,
            "chunk_points": self.chunk_points,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignJobSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigurationError(
                f"unknown job spec field(s): {sorted(unknown)}"
            )
        return cls(**{k: v for k, v in d.items() if k in known})

    def job_id(self) -> str:
        """Deterministic content-hash id: same spec, same job."""
        return "job-" + fingerprint("campaign-job/v1", self.to_dict())[:16]

    def build_framework(self) -> AgingAwareFramework:
        preset = PRESETS[self.preset](fast=self.fast)
        dataset = preset.make_dataset()
        seed = self.seed if self.seed is not None else preset.seed
        return AgingAwareFramework(
            preset.build_network, dataset, preset.framework_config, seed=seed
        )

    def build_points(self) -> List[CampaignPoint]:
        return build_grid(
            kinds=self.kinds,
            rates=self.rates,
            window=self.window,
            with_degradation=self.with_degradation,
            include_baseline=self.include_baseline,
        )

    def build_campaign(self, **kwargs: Any) -> FaultCampaign:
        """Serial-equivalent campaign over this spec (for golden runs)."""
        return FaultCampaign(
            self.build_framework(),
            scenario=self.scenario,
            repeat=self.repeat,
            **kwargs,
        )


@dataclass
class JobStatus:
    """Progress snapshot of one job (JSON-ready via :meth:`to_dict`)."""

    job_id: str
    status: str
    total: int
    done: int
    workload: str
    scenario_key: str
    leases: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None
    #: Points terminally failed (quarantined poison work).
    failed: int = 0

    def to_dict(self) -> dict:
        out = {
            "job_id": self.job_id,
            "status": self.status,
            "total": self.total,
            "done": self.done,
            "failed": self.failed,
            "workload": self.workload,
            "scenario_key": self.scenario_key,
            "leases": dict(self.leases),
        }
        if self.error is not None:
            out["error"] = self.error
        return out


class JobStore:
    """Directory-backed job registry shared by server and workers.

    All cross-process coordination happens through files: the journal
    (completion ledger), the lease board (work assignment) and the
    state file (status machine, guarded by an advisory lock).  Nothing
    in the store assumes a single writer, so the HTTP server and any
    number of workers can operate on one root concurrently — including
    from different machines over a shared filesystem.
    """

    def __init__(
        self,
        root,
        lease_ttl: float = 60.0,
        max_chunk_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.lease_ttl = float(lease_ttl)
        self.max_chunk_attempts = int(max_chunk_attempts)
        #: Corrupt coordination files rebuilt from the journal by this
        #: instance (lease tables + state files), reported by `/metrics`.
        self.recoveries = 0

    # -- paths -------------------------------------------------------------
    def job_dir(self, job_id: str) -> pathlib.Path:
        return self.root / job_id

    def _job_path(self, job_id: str) -> pathlib.Path:
        return self.job_dir(job_id) / "job.json"

    def _state_path(self, job_id: str) -> pathlib.Path:
        return self.job_dir(job_id) / "state.json"

    def _result_path(self, job_id: str) -> pathlib.Path:
        return self.job_dir(job_id) / "result.json"

    def journal(self, job_id: str) -> RunJournal:
        return RunJournal(self.job_dir(job_id) / "journal.jsonl")

    def leases(self, job_id: str, clock=None) -> LeaseBoard:
        board = LeaseBoard(
            self.job_dir(job_id) / "leases.json",
            ttl=self.lease_ttl,
            clock=clock,
            max_attempts=self.max_chunk_attempts,
            recover=lambda: self._rebuild_lease_chunks(job_id),
        )
        return board

    def _rebuild_lease_chunks(self, job_id: str) -> Dict[str, dict]:
        """Reconstruct lease-table entries from the journal (ground truth).

        Called by the :class:`LeaseBoard` when ``leases.json`` is torn
        or corrupt.  Chunks whose every point succeeded come back
        ``done``; chunks fully resolved but containing failure records
        come back ``quarantined`` (their terminal verdict lives in the
        journal, so corruption cannot resurrect poison work); everything
        else returns to ``pending`` with a fresh attempt budget — the
        worst case is re-execution, never lost or wrong results.
        """
        self.recoveries += 1
        document = self.load(job_id)
        journal = self.journal(job_id)
        entries: Dict[str, dict] = {}
        for chunk_id, chunk in enumerate(document["chunks"]):
            keys = [document["points"][i]["key"] for i in chunk]
            if all(k in journal for k in keys):
                entry = fresh_entry(state="done")
            elif all(
                k in journal or failure_key(k) in journal for k in keys
            ):
                entry = fresh_entry(
                    state="quarantined",
                    error="rebuilt from journal after lease-table corruption",
                )
            else:
                entry = fresh_entry()
            entries[str(chunk_id)] = entry
        return entries

    def cache(self) -> ResultCache:
        """Store-wide result cache shared by every job's workers."""
        return ResultCache(self.root / ".cache")

    # -- submission --------------------------------------------------------
    def submit(self, spec: CampaignJobSpec) -> str:
        """Persist a job; idempotent (same spec resumes the same job)."""
        spec.validate()
        job_id = spec.job_id()
        job_path = self._job_path(job_id)
        if job_path.exists():
            return job_id
        framework = spec.build_framework()
        points = spec.build_points()
        # Keys come from the same fingerprint FaultCampaign uses, so the
        # journal/cache written by service workers is interchangeable
        # with one written by a serial `repro campaign` run.
        campaign = FaultCampaign(
            framework, scenario=spec.scenario, repeat=spec.repeat
        )
        chunk = spec.chunk_points or adaptive_chunk_size(len(points), workers=4)
        chunks = [
            list(range(i, min(i + chunk, len(points))))
            for i in range(0, len(points), chunk)
        ]
        document = {
            "schema": JOB_SCHEMA,
            "job_id": job_id,
            "spec": spec.to_dict(),
            "workload": framework.dataset.name,
            "scenario_key": campaign.scenario.key,
            "points": [
                {
                    "name": p.name,
                    "fault_kind": p.fault_kind,
                    "fault_rate": p.fault_rate,
                    "key": campaign.point_key(p),
                }
                for p in points
            ],
            "chunks": chunks,
            "created_unix": time.time(),
        }
        self.job_dir(job_id).mkdir(parents=True, exist_ok=True)
        LeaseBoard.initialize(
            self.job_dir(job_id) / "leases.json", n_chunks=len(chunks)
        )
        save_json_guarded(
            {"status": "queued", "updated_unix": time.time()},
            self._state_path(job_id),
        )
        # job.json lands last: its presence marks a fully submitted job.
        save_json_atomic(document, job_path, durable=True)
        return job_id

    # -- lookup ------------------------------------------------------------
    def list_ids(self) -> List[str]:
        return sorted(
            p.parent.name for p in self.root.glob("job-*/job.json")
        )

    def load(self, job_id: str) -> dict:
        path = self._job_path(job_id)
        if not path.exists():
            raise ServiceError(f"unknown job {job_id!r}")
        document = load_json(path)
        if document.get("schema") != JOB_SCHEMA:
            raise ServiceError(
                f"job {job_id}: unknown schema {document.get('schema')!r}"
            )
        return document

    # -- state machine -----------------------------------------------------
    def _read_state(self, job_id: str) -> dict:
        path = self._state_path(job_id)
        if not path.exists():
            return {"status": "queued"}
        try:
            return load_json_guarded(path)
        except CorruptStateError as exc:
            logger.warning(
                "state file for %s unreadable (%s); rebuilding from the "
                "journal",
                job_id,
                exc,
            )
            return self._rebuild_state(job_id)

    def _rebuild_state(self, job_id: str) -> dict:
        """Reconstruct ``state.json`` from durable evidence.

        A finalized result implies a terminal status; journal entries
        imply ``running``; a bare job is ``queued``.  Explicit
        ``cancelled``/``failed`` verdicts cannot be reconstructed (they
        lived only in the lost file) — the job resumes instead, which
        re-executes at most the unjournaled points and never corrupts a
        result.
        """
        self.recoveries += 1
        result_path = self._result_path(job_id)
        if result_path.exists():
            try:
                report = load_json(result_path)
                status = (
                    "completed_with_failures"
                    if report.get("failures")
                    else "done"
                )
            except Exception:
                status = "running"
        elif len(self.journal(job_id)):
            status = "running"
        else:
            status = "queued"
        state = {
            "status": status,
            "updated_unix": time.time(),
            "recovered": True,
        }
        save_json_guarded(state, self._state_path(job_id))
        return state

    def _write_state(self, job_id: str, status: str, **extra: Any) -> None:
        with file_lock(self._state_path(job_id).with_suffix(".lock")):
            state = self._read_state(job_id)
            # Terminal states are sticky: a worker finishing its chunk
            # after a cancel must not resurrect the job.
            if state.get("status") in TERMINAL_STATES:
                return
            state.update({"status": status, "updated_unix": time.time()})
            state.update(extra)
            save_json_guarded(state, self._state_path(job_id))

    def mark_running(self, job_id: str) -> None:
        if self._read_state(job_id).get("status") == "queued":
            self._write_state(job_id, "running")

    def mark_failed(self, job_id: str, error: str) -> None:
        self._write_state(job_id, "failed", error=str(error))

    def cancel(self, job_id: str) -> JobStatus:
        self.load(job_id)  # raise on unknown id
        self._write_state(job_id, "cancelled")
        return self.status(job_id)

    def is_active(self, job_id: str) -> bool:
        """True while workers should keep executing points."""
        return self._read_state(job_id).get("status") not in TERMINAL_STATES

    # -- progress / results ------------------------------------------------
    def _resolve_points(
        self, job_id: str, document: dict, journal: RunJournal
    ) -> Tuple[int, Dict[int, dict], int]:
        """Classify every point as done, failed or outstanding.

        A point is done when its key is journaled.  It is failed when a
        failure record is journaled under :func:`failure_key`, or when
        its chunk is quarantined (the holders may have died before
        journaling a record).  Returns ``(done, failures, outstanding)``
        with ``failures`` mapping point index to its failure details.
        """
        chunk_of = {
            index: chunk_id
            for chunk_id, chunk in enumerate(document["chunks"])
            for index in chunk
        }
        quarantined: Optional[Dict[int, dict]] = None
        done = outstanding = 0
        failures: Dict[int, dict] = {}
        for index, point in enumerate(document["points"]):
            key = point["key"]
            if key in journal:
                done += 1
            elif failure_key(key) in journal:
                failures[index] = dict(journal.get(failure_key(key)))
            else:
                if quarantined is None:
                    quarantined = self.leases(job_id).quarantined_chunks()
                verdict = quarantined.get(chunk_of[index])
                if verdict is None:
                    outstanding += 1
                    continue
                failures[index] = {
                    "point": point["name"],
                    "error": verdict.get("error")
                    or "chunk quarantined: holders died repeatedly",
                    "attempts": verdict.get("attempts", 0),
                    "worker": verdict.get("worker"),
                }
        return done, failures, outstanding

    def status(self, job_id: str) -> JobStatus:
        document = self.load(job_id)
        state = self._read_state(job_id)
        leases = self.leases(job_id).snapshot()
        done, failures, _ = self._resolve_points(
            job_id, document, self.journal(job_id)
        )
        return JobStatus(
            job_id=job_id,
            status=state.get("status", "queued"),
            total=len(document["points"]),
            done=done,
            failed=len(failures),
            workload=document["workload"],
            scenario_key=document["scenario_key"],
            leases=leases,
            error=state.get("error"),
        )

    def result(self, job_id: str) -> Optional[dict]:
        """The finalized report dict, finalizing first if now complete."""
        path = self._result_path(job_id)
        if path.exists():
            return load_json(path)
        report = self.finalize_if_complete(job_id)
        return None if report is None else report.to_dict()

    def finalize_if_complete(self, job_id: str) -> Optional[SurvivabilityReport]:
        """Assemble the report once every point is *resolved*.

        A point is resolved by a journaled success, a journaled failure
        record, or membership in a quarantined chunk.  The report is
        rebuilt from journal entries **in grid order**, so the
        surviving points are bit-identical to the serial campaign's —
        regardless of which worker finished which point, in what order.
        Failed points appear as ``failed`` marker records (zeros), with
        the structured failure details carried in ``report.failures``.
        The job lands on ``done`` (all survived) or
        ``completed_with_failures`` (partial), never hangs on poison
        work.  Returns ``None`` while points are outstanding or the job
        is cancelled/failed.
        """
        document = self.load(job_id)
        state = self._read_state(job_id)
        if state.get("status") in ("cancelled", "failed"):
            return None
        journal = self.journal(job_id)
        _, failures, outstanding = self._resolve_points(job_id, document, journal)
        if outstanding:
            return None  # keep waiting
        keys = [p["key"] for p in document["points"]]
        points = CampaignJobSpec.from_dict(document["spec"]).build_points()
        report = SurvivabilityReport(
            workload=document["workload"],
            scenario_key=document["scenario_key"],
        )
        for index, (point, key) in enumerate(zip(points, keys)):
            if index in failures:
                report.add(SurvivabilityRecord.failed_point(point))
                report.failures[point.name] = failures[index]
            else:
                result = LifetimeResult.from_dict(journal.get(key))
                report.add(record_from_result(point, result))
        path = self._result_path(job_id)
        if not path.exists():
            save_json_atomic(report.to_dict(), path, durable=True)
        self._write_state(
            job_id, "completed_with_failures" if failures else "done"
        )
        return report
