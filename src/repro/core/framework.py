"""End-to-end workflow of the paper's Fig. 5.

:class:`AgingAwareFramework` glues the pieces: software training (plain
or skewed), hardware mapping (fresh or aging-aware), online tuning, and
the lifetime simulation — and runs the three Table-I scenarios on one
workload for a like-for-like comparison (each scenario gets its own
freshly seeded hardware).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence

from repro.core.executor import ParallelExecutor, Task, TaskOutcome, fingerprint
from repro.core.lifetime import LifetimeConfig, LifetimeSimulator
from repro.core.results import LifetimeResult, ScenarioComparison
from repro.core.scenarios import SCENARIOS, Scenario
from repro.data.dataset import Dataset
from repro.device.config import DeviceConfig
from repro.exceptions import ConfigurationError
from repro.mapping.aging_aware import AgingAwareMapper
from repro.mapping.network import MappedNetwork, clone_model
from repro.nn.model import Sequential
from repro.rng import SeedLike, derive_rng, ensure_rng
from repro.training.skewed import SkewedTrainingConfig, skewed_train
from repro.training.trainer import TrainConfig, train_baseline

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.checkpoint import RunJournal


@dataclass
class FrameworkConfig:
    """Everything the framework needs besides network and data."""

    device: DeviceConfig = field(default_factory=DeviceConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    skewed: SkewedTrainingConfig = field(default_factory=SkewedTrainingConfig)
    lifetime: LifetimeConfig = field(default_factory=LifetimeConfig)
    tile_rows: int = 128
    tile_cols: int = 128
    trace_block: int = 3
    #: Tuning-set size drawn from the training partition.
    tune_samples: int = 256
    #: Target accuracy rule: fraction of the software accuracy that
    #: online tuning must restore (it replaces
    #: ``lifetime.tuning.target_accuracy``).
    target_fraction: float = 0.95

    def __post_init__(self) -> None:
        if not 0.0 < self.target_fraction <= 1.0:
            raise ConfigurationError(
                f"target_fraction must be in (0, 1], got {self.target_fraction}"
            )
        if self.tune_samples < 1:
            raise ConfigurationError(f"tune_samples must be >= 1, got {self.tune_samples}")


class AgingAwareFramework:
    """Train → map → tune → simulate lifetime, per scenario."""

    def __init__(
        self,
        network_builder: Callable[[SeedLike], Sequential],
        dataset: Dataset,
        config: Optional[FrameworkConfig] = None,
        seed: SeedLike = None,
    ) -> None:
        self.network_builder = network_builder
        self.dataset = dataset
        self.config = config if config is not None else FrameworkConfig()
        # One fixed entropy value; every subsystem stream is derived
        # from (entropy, purpose-key) so results are independent of the
        # order in which scenarios are run.
        self._entropy = int(ensure_rng(seed).integers(0, 2**63 - 1))
        #: Trained models cached per training style so T+T and T+AT (or
        #: ST+T and ST+AT) share identical software weights.
        self._trained: Dict[bool, Sequential] = {}
        self._software_accuracy: Dict[bool, float] = {}

    # -- training ---------------------------------------------------------
    def trained_model(self, skewed: bool) -> Sequential:
        """Train (once) and cache the model for a training style."""
        if skewed not in self._trained:
            model = self.network_builder(derive_rng(self._entropy, f"train-{skewed}"))
            # Training validates on the test set after its last epoch, so
            # that value is the test accuracy of the final weights.
            if skewed:
                result = skewed_train(model, self.dataset, self.config.skewed)
                history = result.skew_history
            else:
                history = train_baseline(model, self.dataset, self.config.train)
            self._trained[skewed] = model
            self._software_accuracy[skewed] = history.val_accuracy[-1]
        return self._trained[skewed]

    def software_accuracy(self, skewed: bool) -> float:
        """Test accuracy of the (cached) software model."""
        self.trained_model(skewed)
        return self._software_accuracy[skewed]

    # -- tuning set ----------------------------------------------------------
    def _tuning_set(self):
        n = min(self.config.tune_samples, self.dataset.n_train)
        return self.dataset.x_train[:n], self.dataset.y_train[:n]

    # -- scenario execution -----------------------------------------------------
    def _resolve_scenario(self, scenario: Scenario | str) -> Scenario:
        if isinstance(scenario, str):
            try:
                return SCENARIOS[scenario]
            except KeyError:
                raise ConfigurationError(
                    f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}"
                ) from None
        return scenario

    def scenario_task(
        self,
        key: str,
        scenario: Scenario | str,
        repeat: int = 0,
        fault_schedule=None,
        degradation: bool = False,
        **run_kwargs,
    ) -> Task:
        """Executor task for one :meth:`run_scenario` call, labelled ``key``.

        Its ``journal_key`` is the one place a run's journal key is
        built: a content hash of everything the run depends on (the
        scenario, the repeat index, the framework entropy that seeds
        training, hardware and tuning streams, the full configuration
        tree, the dataset arrays and the network builder), so any change
        to any of them misses the journal.  The fault schedule and the
        degradation flag are folded in only when a schedule is given or
        the flag is set, so a plain scenario run and a fault campaign's
        fault-free baseline point share one key.
        ``run_kwargs`` (the checkpoint options) reach ``run_scenario``
        but stay out of the key: they never change the result.
        """
        scenario = self._resolve_scenario(scenario)
        parts = [
            "scenario-run/v1",
            scenario,
            int(repeat),
            self._entropy,
            self.config,
            self.dataset,
            self.network_builder,
        ]
        if fault_schedule is not None or degradation:
            parts.append(("robustness/v1", fault_schedule, degradation))
        return Task(
            key=key,
            fn=self.run_scenario,
            args=(scenario.key, repeat),
            kwargs={
                "fault_schedule": fault_schedule,
                "degradation": degradation,
                **run_kwargs,
            },
            journal_key=fingerprint(*parts),
            encode=LifetimeResult.to_dict,
            decode=LifetimeResult.from_dict,
        )

    def run_scenario(
        self,
        scenario: Scenario | str,
        repeat: int = 0,
        fault_schedule=None,
        degradation: bool = False,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir=None,
    ) -> LifetimeResult:
        """Run one scenario's full lifetime simulation.

        ``repeat`` selects an independent hardware/tuning seed stream
        (the trained software weights are shared across repeats);
        lifetime is a heavy-tailed quantity, so experiments should
        aggregate a few repeats — see :meth:`run_scenario_repeats`.
        This always simulates; to replay a stored result, pass its
        :meth:`scenario_task` and a journal to :meth:`run_tasks`.

        ``fault_schedule`` (a :class:`repro.robustness.FaultSchedule`)
        injects field faults during the run; ``degradation=True`` makes
        online tuning mask dead devices
        (``TuningConfig.mask_dead_devices``).  Both fold into the
        journal key when present.

        ``checkpoint_every``/``checkpoint_dir`` make the lifetime run
        resumable (see :mod:`repro.core.checkpoint`): a durable snapshot
        lands after every N windows under the run id
        ``<scenario>-r<repeat>``; resume with
        :meth:`LifetimeSimulator.resume`.  Snapshots never affect the
        result, so journal keys are unchanged.
        """
        scenario = self._resolve_scenario(scenario)
        if repeat < 0:
            raise ConfigurationError(f"repeat must be >= 0, got {repeat}")
        cfg = self.config
        model = clone_model(self.trained_model(scenario.skewed_training))
        network = MappedNetwork(
            model,
            device_config=cfg.device,
            tile_rows=cfg.tile_rows,
            tile_cols=cfg.tile_cols,
            trace_block=cfg.trace_block,
            seed=derive_rng(self._entropy, f"hw-{scenario.key}-{repeat}"),
        )
        x_tune, y_tune = self._tuning_set()

        target = cfg.target_fraction * self.software_accuracy(scenario.skewed_training)
        lifetime_cfg = cfg.lifetime.with_target(min(0.999, max(1e-6, target)))
        if degradation:
            lifetime_cfg.tuning = replace(lifetime_cfg.tuning, mask_dead_devices=True)

        simulator = LifetimeSimulator(
            network,
            x_tune,
            y_tune,
            config=lifetime_cfg,
            mapper=AgingAwareMapper() if scenario.aging_aware_mapping else None,
            seed=derive_rng(self._entropy, f"tune-{scenario.key}-{repeat}"),
            fault_schedule=fault_schedule,
        )
        # Stamped before the run (not patched on afterwards) so mid-run
        # snapshots carry it and a resumed run reports it identically.
        simulator.software_accuracy = self.software_accuracy(scenario.skewed_training)
        return simulator.run(
            scenario.key,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            run_id=f"{scenario.key}-r{repeat}",
        )

    def run_tasks(
        self,
        tasks: Sequence[Task],
        workers: int = 1,
        journal: Optional["RunJournal"] = None,
    ) -> list[TaskOutcome]:
        """Run :meth:`scenario_task` tasks through one executor, in order.

        The one runner of every grid of lifetime runs.  Tasks already in
        ``journal`` are replayed, completed ones are stored there, and
        the first failure propagates.  Each training style an unjournaled
        task needs is trained here, in the parent, before fan-out, so
        pool workers inherit the software weights instead of each
        retraining (bit-identical, just wasteful); a style whose runs
        are all journaled is never trained.
        """
        executor = ParallelExecutor(workers=workers, journal=journal)
        for task in tasks:
            if not executor.is_stored(task):
                scenario = self._resolve_scenario(task.args[0])
                self.trained_model(scenario.skewed_training)
        return executor.run(tasks, reraise=True)

    def run_scenario_repeats(
        self,
        scenario: Scenario | str,
        repeats: int = 3,
        workers: int = 1,
        journal: Optional["RunJournal"] = None,
    ) -> list[LifetimeResult]:
        """Run ``repeats`` independent hardware instantiations.

        The software training is shared (cached); only the hardware and
        tuning randomness differ, mirroring one chip design deployed on
        several dies.  ``workers > 1`` fans the repeats out over a
        process pool with bit-identical results (every repeat's streams
        are derived from ``(entropy, purpose-key)``, never consumed from
        a shared generator).  Repeats already in ``journal`` are
        replayed, and completed ones are stored there.
        """
        if repeats < 1:
            raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
        scenario = self._resolve_scenario(scenario)
        tasks = [
            self.scenario_task(f"{scenario.key}#r{i}", scenario, i)
            for i in range(repeats)
        ]
        return [o.value for o in self.run_tasks(tasks, workers, journal)]

    def compare(
        self,
        scenario_keys=("t+t", "st+t", "st+at"),
        repeats: int = 1,
        workers: int = 1,
        journal: Optional["RunJournal"] = None,
    ) -> ScenarioComparison:
        """Run several scenarios and collect a Table-I-style comparison.

        With ``repeats > 1`` each scenario's stored result is the one
        with the **median** lifetime among its repeats.  ``workers > 1``
        runs *all* (scenario, repeat) pairs concurrently — not scenario
        by scenario — and reassembles them in deterministic order, so
        the comparison is bit-identical to a serial run.  Runs already
        in ``journal`` are replayed, and completed ones are stored there.
        """
        if repeats < 1:
            raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
        comparison = ScenarioComparison(workload=self.dataset.name)
        scenarios = [self._resolve_scenario(k) for k in scenario_keys]
        tasks = [
            self.scenario_task(f"{s.key}#r{i}", s, i)
            for s in scenarios
            for i in range(repeats)
        ]
        results = [o.value for o in self.run_tasks(tasks, workers, journal)]
        for j in range(len(scenarios)):
            group = sorted(
                results[j * repeats:(j + 1) * repeats],
                key=lambda r: r.lifetime_applications,
            )
            comparison.add(group[len(group) // 2])
        return comparison

