"""Fault-injection campaigns: fanning a fault grid through the executor.

A campaign sweeps a grid of fault scenarios — fault kind × severity ×
dead-gradient masking off/on (the ``/raw`` and ``/deg`` points) — over
one lifetime scenario of an
:class:`~repro.core.framework.AgingAwareFramework`.  Each grid point is
one full lifetime simulation; points run through the
:class:`~repro.core.executor.ParallelExecutor` (in-process or fanned out,
bit-identical either way; a crashing worker fails only its own chunk)
and may share a :class:`~repro.core.checkpoint.RunJournal` with plain
scenario runs: the fault-free baseline point replays the entry an
ordinary ``repro run --journal`` or ``compare`` would write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.checkpoint import RunJournal
from repro.core.framework import AgingAwareFramework
from repro.core.results import LifetimeResult
from repro.exceptions import ConfigurationError
from repro.robustness.report import SurvivabilityRecord, SurvivabilityReport
from repro.robustness.schedule import FaultSchedule


@dataclass(frozen=True)
class CampaignPoint:
    """One grid cell: a fault schedule, and whether tuning masks dead devices."""

    name: str
    fault_kind: str
    fault_rate: float
    schedule: Optional[FaultSchedule] = None
    degradation: bool = False


def build_grid(
    kinds: Sequence[str] = ("stuck_at",),
    rates: Sequence[float] = (0.005, 0.01, 0.02),
    window: int = 1,
    with_degradation: bool = True,
) -> List[CampaignPoint]:
    """Standard campaign grid: kinds × rates × degradation {off, on}.

    The fault-free baseline point anchors the lifetime-degradation
    ratios of the report; ``with_degradation=False`` drops the
    masked (``/deg``) half of the grid.
    """
    if not kinds or not rates:
        raise ConfigurationError("grid needs at least one kind and one rate")
    points = [CampaignPoint(name="baseline", fault_kind="none", fault_rate=0.0)]
    flags = (False, True) if with_degradation else (False,)
    for kind in kinds:
        for rate in rates:
            if rate <= 0:
                raise ConfigurationError(f"fault rates must be > 0, got {rate}")
            schedule = FaultSchedule.single(kind, rate, window=window)
            for degradation in flags:
                suffix = "deg" if degradation else "raw"
                points.append(
                    CampaignPoint(
                        name=f"{kind}@{rate:g}/{suffix}",
                        fault_kind=kind,
                        fault_rate=float(rate),
                        schedule=schedule,
                        degradation=degradation,
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
        journal: Optional[RunJournal] = None,
    ) -> None:
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        if repeat < 0:
            raise ConfigurationError(f"repeat must be >= 0, got {repeat}")
        self.framework = framework
        self.scenario = framework._resolve_scenario(scenario)
        self.repeat = int(repeat)
        self.workers = int(workers)
        #: Optional crash-safe journal: completed grid points are
        #: appended durably as they finish, and a re-launched campaign
        #: over the same journal re-executes zero of them.
        self.journal = journal

    def run(self, points: Sequence[CampaignPoint]) -> SurvivabilityReport:
        """Simulate every grid point and assemble the report.

        The points run through
        :meth:`~repro.core.framework.AgingAwareFramework.run_tasks`,
        concurrently with ``workers > 1``; results are bit-identical to
        a serial run.  ``report.perf``
        holds the perf-counter delta of every point that executed here
        (not of journal replays).
        """
        if not points:
            raise ConfigurationError("campaign needs at least one point")
        names = [p.name for p in points]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate campaign point names in {names}")
        tasks = [
            self.framework.scenario_task(
                p.name, self.scenario, self.repeat, p.schedule, p.degradation
            )
            for p in points
        ]
        outcomes = self.framework.run_tasks(tasks, self.workers, self.journal)
        report = SurvivabilityReport(
            workload=self.framework.dataset.name,
            scenario_key=self.scenario.key,
            perf={o.key: o.perf for o in outcomes if o.perf is not None},
        )
        for point, outcome in zip(points, outcomes):
            report.add(record_from_result(point, outcome.value))
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
        degradation=point.degradation,
        lifetime_applications=result.lifetime_applications,
        windows_survived=result.windows_survived,
        tuning_success_rate=converged / n_windows if n_windows else 0.0,
        final_accuracy=final_accuracy,
        failed=result.failed,
    )

