"""Fault-injection campaigns: fanning a fault grid through the executor.

A campaign sweeps a grid of fault scenarios — fault kind × severity ×
degradation on/off — over one lifetime scenario of an
:class:`~repro.core.framework.AgingAwareFramework`.  Each grid point is
one full lifetime simulation; points fan out through the
:class:`~repro.core.executor.ParallelExecutor` (bit-identical to a
serial run, resilient to worker crashes via its retry/rebuild
machinery) and share the on-disk :class:`~repro.core.executor.ResultCache`
with plain scenario runs: the fault-free baseline point hits the same
cache entry an ordinary ``run_scenario`` would write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.checkpoint import RunJournal
from repro.core.executor import ParallelExecutor, ResultCache, Task
from repro.core.framework import AgingAwareFramework
from repro.core.profiling import PROFILER
from repro.core.results import LifetimeResult
from repro.exceptions import ConfigurationError
from repro.robustness.degradation import DegradationPolicy
from repro.robustness.report import SurvivabilityRecord, SurvivabilityReport
from repro.robustness.schedule import FaultSchedule


@dataclass(frozen=True)
class CampaignPoint:
    """One grid cell: a fault schedule plus a degradation policy."""

    name: str
    fault_kind: str
    fault_rate: float
    schedule: Optional[FaultSchedule] = None
    degradation: Optional[DegradationPolicy] = None

    @property
    def degradation_enabled(self) -> bool:
        return self.degradation is not None and self.degradation.any_enabled


def build_grid(
    kinds: Sequence[str] = ("stuck_at",),
    rates: Sequence[float] = (0.005, 0.01, 0.02),
    window: int = 1,
    with_degradation: bool = True,
    include_baseline: bool = True,
) -> List[CampaignPoint]:
    """Standard campaign grid: kinds × rates × degradation {off, on}.

    The fault-free baseline point anchors the lifetime-degradation
    ratios of the report; ``with_degradation=False`` drops the
    recovery-enabled half of the grid.
    """
    if not kinds or not rates:
        raise ConfigurationError("grid needs at least one kind and one rate")
    points: List[CampaignPoint] = []
    if include_baseline:
        points.append(CampaignPoint(name="baseline", fault_kind="none", fault_rate=0.0))
    policies: List[Optional[DegradationPolicy]] = [None]
    if with_degradation:
        policies.append(DegradationPolicy.enabled())
    for kind in kinds:
        for rate in rates:
            if rate <= 0:
                raise ConfigurationError(f"fault rates must be > 0, got {rate}")
            schedule = FaultSchedule.single(kind, rate, window=window)
            for policy in policies:
                suffix = "deg" if policy is not None else "raw"
                points.append(
                    CampaignPoint(
                        name=f"{kind}@{rate:g}/{suffix}",
                        fault_kind=kind,
                        fault_rate=float(rate),
                        schedule=schedule,
                        degradation=policy,
                    )
                )
    return points


class FaultCampaign:
    """Run a grid of fault points against one lifetime scenario."""

    def __init__(
        self,
        framework: AgingAwareFramework,
        scenario: str = "st+at",
        repeat: int = 0,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        journal: Optional[RunJournal] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        if repeat < 0:
            raise ConfigurationError(f"repeat must be >= 0, got {repeat}")
        self.framework = framework
        self.scenario = framework._resolve_scenario(scenario)
        self.repeat = int(repeat)
        self.workers = int(workers)
        self.cache = cache
        #: Points per pool submission in parallel mode (``None`` = auto
        #: adaptive chunking, ``1`` = legacy one-future-per-point).
        self.chunk_size = chunk_size
        #: Optional crash-safe journal: completed grid points are
        #: appended durably as they finish, and a re-launched campaign
        #: over the same journal re-executes zero of them.
        self.journal = journal

    def point_key(self, point: CampaignPoint) -> str:
        """Content-hash identity of one grid point (cache AND journal).

        The same fingerprint the :class:`ResultCache` uses, so journal
        replay obeys identical invalidation semantics: any change to the
        framework config, dataset, scenario or fault grid re-executes.
        The campaign service leases and journals grid points under these
        keys, which is what keeps service-drained campaigns idempotent
        and bit-identical to serial runs.
        """
        extra = (
            None
            if point.schedule is None and point.degradation is None
            else ("robustness/v1", point.schedule, point.degradation)
        )
        return self.framework.scenario_cache_key(self.scenario, self.repeat, extra=extra)

    def _point_cache_key(self, point: CampaignPoint) -> Optional[str]:
        if self.cache is None:
            return None
        return self.point_key(point)

    def run(self, points: Sequence[CampaignPoint]) -> SurvivabilityReport:
        """Simulate every grid point and assemble the report.

        With ``workers > 1`` the points run concurrently through the
        executor (training happens once in the parent, before fan-out);
        results are bit-identical to a serial run.
        """
        if not points:
            raise ConfigurationError("campaign needs at least one point")
        names = [p.name for p in points]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate campaign point names in {names}")
        point_perf = {}
        if self.workers <= 1:
            # Serial mode: capture per-point perf-counter deltas so the
            # report can attribute windows, tuning iterations and
            # hardware reads to individual grid points.  (Counters are
            # process-local; the parallel branch leaves perf empty.
            # Journal-replayed points also skip perf capture — nothing
            # executed.)
            results = []
            for p in points:
                key = self.point_key(p) if self.journal is not None else None
                if key is not None:
                    # Pick up points completed by concurrent drainers of
                    # the same journal (service workers, sibling runs).
                    self.journal.refresh()
                if key is not None and key in self.journal:
                    self.journal.skipped += 1
                    results.append(LifetimeResult.from_dict(self.journal.get(key)))
                    continue
                with PROFILER.capture() as delta:
                    results.append(
                        self.framework.run_scenario(
                            self.scenario,
                            repeat=self.repeat,
                            cache=self.cache,
                            fault_schedule=p.schedule,
                            degradation=p.degradation,
                        )
                    )
                point_perf[p.name] = delta.to_dict()
                if key is not None:
                    self.journal.record(key, results[-1].to_dict())
        else:
            self.framework.trained_model(self.scenario.skewed_training)
            tasks = [
                Task(
                    key=p.name,
                    fn=_run_point_in_worker,
                    args=(
                        self.framework,
                        self.scenario.key,
                        self.repeat,
                        p.schedule,
                        p.degradation,
                    ),
                    cache_key=self._point_cache_key(p),
                    journal_key=(
                        self.point_key(p) if self.journal is not None else None
                    ),
                    encode=LifetimeResult.to_dict,
                    decode=LifetimeResult.from_dict,
                )
                for p in points
            ]
            executor = ParallelExecutor(
                workers=self.workers,
                cache=self.cache,
                journal=self.journal,
                chunk_size=self.chunk_size,
            )
            results = [o.value for o in executor.run(tasks, reraise=True)]

        report = SurvivabilityReport(
            workload=self.framework.dataset.name,
            scenario_key=self.scenario.key,
            perf=point_perf,
        )
        for point, result in zip(points, results):
            report.add(record_from_result(point, result))
        return report


def record_from_result(
    point: CampaignPoint, result: LifetimeResult
) -> SurvivabilityRecord:
    """Collapse one lifetime trajectory into a survivability record."""
    n_windows = len(result.windows)
    converged = sum(1 for w in result.windows if w.converged)
    final_accuracy = result.windows[-1].accuracy_after if result.windows else 0.0
    return SurvivabilityRecord(
        point=point.name,
        fault_kind=point.fault_kind,
        fault_rate=point.fault_rate,
        degradation=point.degradation_enabled,
        lifetime_applications=result.lifetime_applications,
        windows_survived=result.windows_survived,
        tuning_success_rate=converged / n_windows if n_windows else 0.0,
        final_accuracy=final_accuracy,
        failed=result.failed,
    )


def _run_point_in_worker(
    framework: AgingAwareFramework,
    scenario_key: str,
    repeat: int,
    schedule: Optional[FaultSchedule],
    degradation: Optional[DegradationPolicy],
) -> LifetimeResult:
    """Module-level task body so the executor can ship it to workers."""
    return framework.run_scenario(
        scenario_key,
        repeat=repeat,
        fault_schedule=schedule,
        degradation=degradation,
    )
