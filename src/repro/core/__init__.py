"""The paper's contribution: the aging-aware lifetime framework.

* :class:`Scenario` — the three evaluation pipelines of Table I:
  ``T+T`` (traditional training + tuning), ``ST+T`` (skewed training +
  tuning) and ``ST+AT`` (skewed training + aging-aware mapping +
  tuning).
* :class:`LifetimeSimulator` — drives a mapped network through
  application windows (inference → drift → remap → online tune) until
  the tuning budget is exceeded: the crossbar's end of life.
* :class:`AgingAwareFramework` — the Fig. 5 workflow glue: train, map,
  simulate, compare scenarios.
* :class:`ParallelExecutor` — the process-parallel execution engine with
  deterministic seeding that scenario comparisons, repeats, campaigns
  and sweeps fan out through.
* :data:`PROFILER` — process-local perf counters and timers for the
  hot paths (DESIGN.md §9).
* :class:`CheckpointManager` / :class:`RunJournal` — durable
  checkpoint/resume for lifetime runs, and the crash-safe journal that
  is the executor's one result store (DESIGN.md §10).
"""

from repro.core.checkpoint import (
    CheckpointInfo,
    CheckpointManager,
    RunJournal,
    inspect_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.executor import (
    ParallelExecutor,
    Task,
    TaskOutcome,
    adaptive_chunk_size,
    fingerprint,
)
from repro.core.framework import AgingAwareFramework, FrameworkConfig
from repro.core.lifetime import LifetimeConfig, LifetimeSimulator
from repro.core.profiling import PROFILER, PerfDelta, PerfRegistry
from repro.core.presets import (
    PRESETS,
    ExperimentPreset,
    blobs_mini,
    lenet_glyphs,
    vggnet_shapes,
)
from repro.core.results import LifetimeResult, ScenarioComparison, WindowRecord
from repro.core.scenarios import SCENARIOS, Scenario
from repro.core.sweep import Sweep, SweepPoint, SweepResult

__all__ = [
    "AgingAwareFramework",
    "CheckpointInfo",
    "CheckpointManager",
    "ExperimentPreset",
    "FrameworkConfig",
    "LifetimeConfig",
    "LifetimeResult",
    "LifetimeSimulator",
    "PRESETS",
    "PROFILER",
    "ParallelExecutor",
    "PerfDelta",
    "PerfRegistry",
    "RunJournal",
    "SCENARIOS",
    "Scenario",
    "ScenarioComparison",
    "Sweep",
    "SweepPoint",
    "SweepResult",
    "Task",
    "TaskOutcome",
    "WindowRecord",
    "adaptive_chunk_size",
    "blobs_mini",
    "fingerprint",
    "inspect_checkpoint",
    "lenet_glyphs",
    "load_checkpoint",
    "save_checkpoint",
    "vggnet_shapes",
]
