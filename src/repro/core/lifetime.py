"""Lifetime simulation engine — the paper's Section V methodology.

The crossbar's life is a sequence of *application windows*.  During a
window the array performs ``apps_per_window`` inference applications;
repeated reading drifts the programmed conductances (the recoverable
effect of the paper's ref [8]).  At the end of each window the
controller restores accuracy with a **remap + online-tune** cycle:

1. re-map the trained weights under the scenario's mapping policy
   (fresh range for T+T/ST+T, aging-aware common-range selection for
   ST+AT) — every reprogrammed device takes programming pulses and ages;
2. online-tune with sign pulses until the target accuracy is reached.

The crossbar **fails** at the first window whose tuning cannot reach
the target within the iteration budget (150 in the paper).  Lifetime is
the number of applications completed before that window — Fig. 10's
x-axis position of the iteration-count knee.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.core.checkpoint import (
    CheckpointManager,
    capture_simulator,
    load_checkpoint,
    restore_simulator,
)
from repro.core.profiling import PROFILER
from repro.core.results import LifetimeResult, WindowRecord
from repro.exceptions import ConfigurationError
from repro.mapping.aging_aware import AgingAwareMapper
from repro.mapping.fresh import FreshMapper
from repro.mapping.network import MappedNetwork
from repro.rng import spawn_rng
from repro.tuning.online import OnlineTuner, TuningConfig


@dataclass
class LifetimeConfig:
    """Knobs of the lifetime simulation.

    Attributes
    ----------
    apps_per_window:
        Inference applications per window.  The paper simulates
        4x10^7 applications total; we default to laptop-scale windows —
        lifetime *ratios* between scenarios are scale-invariant (see
        DESIGN.md §2).
    drift_magnitude:
        Lognormal sigma of the per-window read-disturb drift that forces
        the remap + retune cycle.
    max_windows:
        Safety horizon: stop after this many windows even without
        failure (result is then marked ``failed=False``).
    tuning:
        Online-tuning configuration (budget of 150 iterations etc.).
    """

    apps_per_window: int = 10_000
    drift_magnitude: float = 0.06
    max_windows: int = 200
    tuning: TuningConfig = field(default_factory=TuningConfig)

    def __post_init__(self) -> None:
        if self.tuning is None:
            # Tolerated for callers that explicitly pass tuning=None.
            self.tuning = TuningConfig()
        if self.apps_per_window < 1:
            raise ConfigurationError(
                f"apps_per_window must be >= 1, got {self.apps_per_window}"
            )
        if self.drift_magnitude < 0:
            raise ConfigurationError(
                f"drift_magnitude must be >= 0, got {self.drift_magnitude}"
            )
        if self.max_windows < 1:
            raise ConfigurationError(f"max_windows must be >= 1, got {self.max_windows}")

    def with_target(self, target_accuracy: float) -> "LifetimeConfig":
        """Independent copy with a resolved tuning target.

        The copy shares no mutable state with ``self`` — required by the
        framework, which resolves a per-scenario target: mutating a
        shared :class:`TuningConfig` in place would leak the resolved
        value back into the caller's config (and destabilize the
        content-hash journal keys of the execution engine).
        """
        return replace(
            self, tuning=replace(self.tuning, target_accuracy=target_accuracy)
        )


class LifetimeSimulator:
    """Run a mapped network through application windows until failure."""

    def __init__(
        self,
        network: MappedNetwork,
        x_tune: np.ndarray,
        y_tune: np.ndarray,
        config: Optional[LifetimeConfig] = None,
        mapper: Optional[AgingAwareMapper] = None,
        seed=None,
        fault_schedule=None,
    ) -> None:
        self.network = network
        self.x_tune = np.asarray(x_tune, dtype=np.float64)
        self.y_tune = np.asarray(y_tune, dtype=np.float64)
        self.config = config if config is not None else LifetimeConfig()
        #: The aging-aware mapper of an AT scenario; ``None`` remaps
        #: every window into the fresh range.
        self.mapper = mapper
        self.tuner = OnlineTuner(self.config.tuning, seed=seed)
        #: Optional :class:`repro.robustness.FaultSchedule`; its due
        #: events are applied at the start of each window.  The fault
        #: stream is derived from the tuner's generator only when a
        #: schedule is present, so fault-free runs consume the exact
        #: same random state as before this feature existed.
        self.fault_schedule = fault_schedule
        self._fault_rng = (
            spawn_rng(self.tuner._rng, "fault-schedule")
            if fault_schedule is not None
            else None
        )
        #: Software (pre-mapping) test accuracy of the model, stamped
        #: into the :class:`LifetimeResult` at creation so snapshots
        #: carry it and a resumed run reports it identically.  The
        #: framework sets this before calling :meth:`run`.
        self.software_accuracy: float = 0.0
        #: Set by :meth:`resume`; consumed (and cleared) by the next
        #: :meth:`run` call, which then continues the restored run.
        self._resume_state: Optional[tuple] = None

    @classmethod
    def resume(cls, path) -> "LifetimeSimulator":
        """Rebuild a mid-run simulator from a snapshot file.

        The returned simulator carries the partial result and continues
        from the checkpointed window on the next :meth:`run` call,
        bit-identically to a run that was never interrupted (same
        accuracy trace, same RNG streams — see DESIGN.md §10).
        """
        simulator, result, next_window, applications = restore_simulator(
            load_checkpoint(path)
        )
        simulator._resume_state = (result, next_window, applications)
        return simulator

    def _remap(self, x_tune: np.ndarray) -> None:
        if self.mapper is not None:
            self.network.map_network(self.mapper, selection_data=(x_tune, self.y_tune))
        else:
            self.network.map_network(FreshMapper())

    def run(
        self,
        scenario_key: str = "custom",
        checkpoint_every: Optional[int] = None,
        checkpoint_dir=None,
        run_id: Optional[str] = None,
    ) -> LifetimeResult:
        """Simulate windows until tuning fails or the horizon is reached.

        With ``checkpoint_every=N`` (requires ``checkpoint_dir``) a
        durable snapshot is written after every N completed windows, so
        a killed process can be continued with :meth:`resume` at the
        cost of re-running at most N-1 windows.  Snapshotting draws no
        randomness: a checkpointing run is bit-identical to a plain one.
        On a simulator built by :meth:`resume`, the restored run is
        continued (``scenario_key`` is then taken from the snapshot).
        """
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ConfigurationError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            if checkpoint_dir is None:
                raise ConfigurationError(
                    "checkpoint_every requires a checkpoint_dir"
                )
        PROFILER.increment("lifetime.runs")
        with PROFILER.timer("lifetime.run"):
            return self._run_impl(
                scenario_key, checkpoint_every, checkpoint_dir, run_id
            )

    def _run_impl(
        self,
        scenario_key: str,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir=None,
        run_id: Optional[str] = None,
    ) -> LifetimeResult:
        cfg = self.config
        if self._resume_state is not None:
            result, start_window, applications = self._resume_state
            self._resume_state = None
        else:
            result = LifetimeResult(
                scenario_key=scenario_key,
                lifetime_applications=0,
                failed=False,
                target_accuracy=cfg.tuning.target_accuracy,
                software_accuracy=self.software_accuracy,
            )
            start_window, applications = 0, 0
        manager = (
            CheckpointManager(checkpoint_dir) if checkpoint_every is not None else None
        )
        ckpt_run_id = run_id if run_id is not None else result.scenario_key
        # Every window scores the same tuning set: unfold it once per run,
        # into a local, so no snapshot or executor payload carries it.
        x_tune = self.network.model.layers[0].unfold(self.x_tune)
        for window in range(start_window, cfg.max_windows):
            # Field faults land first: a schedule's due events hit the
            # array before this window's applications, so the following
            # maintenance cycle has to recover from them.
            if self.fault_schedule is not None:
                self.fault_schedule.apply(self.network, window, self._fault_rng)

            # The window's applications happen first; the array drifts.
            applications += cfg.apps_per_window
            self.network.apply_drift(cfg.drift_magnitude)

            # Maintenance cycle: remap + tune.
            self._remap(x_tune)
            tuning = self.tuner.tune(self.network, x_tune, self.y_tune)

            record = WindowRecord(
                window_index=window,
                applications_total=applications,
                tuning_iterations=tuning.iterations,
                converged=tuning.converged,
                accuracy_after=tuning.final_accuracy,
                pulses_total=self.network.total_pulses(),
                dead_fraction=self.network.dead_fraction(),
                aged_upper_by_layer=self.network.aging_by_layer(),
            )
            result.windows.append(record)
            PROFILER.increment("lifetime.windows")

            if not tuning.converged:
                # The maintenance cycle failed: the applications of this
                # window could not be completed at target accuracy.
                result.failed = True
                result.lifetime_applications = applications - cfg.apps_per_window
                return result
            result.lifetime_applications = applications
            if manager is not None and (window + 1) % checkpoint_every == 0:
                PROFILER.increment("lifetime.checkpoints")
                with PROFILER.timer("lifetime.checkpoint"):
                    manager.save(
                        capture_simulator(self, result, window + 1, applications),
                        run_id=ckpt_run_id,
                        window=window + 1,
                    )
        return result
