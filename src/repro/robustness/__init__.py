"""Fault-injection campaigns.

The paper's lifetime model assumes defect-free arrays; this package
quantifies what happens when they are not.  :class:`FaultSchedule`
injects field faults (stuck-at, drift bursts, sensing noise,
programming-pulse misses) at chosen windows of a
:class:`~repro.core.lifetime.LifetimeSimulator` run,
:class:`FaultCampaign` fans a grid of fault scenarios through the
parallel executor, and :class:`SurvivabilityReport` aggregates the
results into accuracy-vs-fault-rate and lifetime-degradation curves.

A grid point's ``degradation`` flag turns on dead-device gradient
masking in online tuning
(:attr:`repro.tuning.online.TuningConfig.mask_dead_devices`).  Over
16 dies it lengthened no lifetime (EXPERIMENTS.md, "Fault-recovery
levers"); it stays only because the perf benchmark's fault-campaign
digest pins the grid's ``/deg`` half.
"""

from repro.robustness.campaign import (
    CampaignPoint,
    FaultCampaign,
    build_grid,
    record_from_result,
)
from repro.robustness.report import SurvivabilityRecord, SurvivabilityReport
from repro.robustness.schedule import FaultEvent, FaultSchedule

__all__ = [
    "CampaignPoint",
    "FaultCampaign",
    "FaultEvent",
    "FaultSchedule",
    "SurvivabilityRecord",
    "SurvivabilityReport",
    "build_grid",
    "record_from_result",
]
