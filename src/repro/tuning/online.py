"""Sign-based online tuning — paper Section II-C.

After hardware mapping, quantization/aging/noise leave the crossbar
accuracy below the software level.  Online tuning closes the gap with a
simplified hardware-friendly update: exact derivatives are too expensive
to realize on-chip, so only the **sign** of each weight derivative
selects the polarity of a constant-amplitude programming pulse
(Eq. (5))::

    V_i ∝ sign(-dCost/dW_i)

One *iteration* = one such sweep over all mapped layers on one tuning
batch.  Each pulsed device moves ~one quantized level and accrues one
pulse of aging stress — which is exactly why excessive tuning shortens
crossbar lifetime, and why the paper's techniques aim to reduce the
iteration count.

Tuning stops when the target accuracy is reached (converged) or the
iteration budget is exhausted (the lifetime engine treats a budget
overrun as end-of-life).

Each sweep runs **batched** (DESIGN.md §11): sign/threshold/dead-mask
decisions for every layer are computed as whole-array ops and applied
through the crossbars' ``program_pulses(polarity)`` entry point,
with the per-pulse aging accrual and any ``pulse_miss``/stuck-at fault
hooks folded into the same masked update.  The per-device Eq. (5)
reference that ``tests/tuning/test_tuner_equivalence.py`` diffs this
path against bit for bit lives in ``tests/oracles/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.profiling import PROFILER
from repro.exceptions import ConfigurationError
from repro.mapping.network import MappedNetwork
from repro.rng import SeedLike, ensure_rng

#: Accuracy gap below target past which a stalled session is hopeless
#: (see ``TuningConfig.patience_evals``).
HOPELESS_GAP = 0.15


@dataclass
class TuningConfig:
    """Knobs of the online tuning controller.

    Attributes
    ----------
    target_accuracy:
        Accuracy on the tuning set at which tuning declares success.
    max_iterations:
        Iteration budget; the paper uses 150.
    batch_size:
        Samples per tuning batch (drawn from the tuning set).
    threshold:
        Per-layer relative gradient-magnitude threshold; devices whose
        ``|grad|`` is below ``threshold * max|grad|`` of their layer are
        not pulsed this iteration.  Keeps the pulse count (and aging)
        focused on the weights that actually matter.
    step_fraction:
        Conductance increment of one tuning pulse, as a fraction of the
        mean conductance level spacing (see
        :meth:`repro.crossbar.crossbar.Crossbar.program_pulses`).
    decay_after:
        Constant-amplitude sign pulses can limit-cycle around the
        target; after this many consecutive non-improving evaluations
        the pulse amplitude is halved (hardware drives the programming
        DAC, so a smaller constant amplitude is realizable — the BSB
        scheme of the paper's ref [16] does the same).  Set 0 to keep
        the amplitude fixed.
    min_step_fraction:
        Lower bound of the decayed amplitude.
    eval_every:
        Accuracy is evaluated every this many iterations (evaluation is
        pure read-out, no aging).
    patience_evals:
        Early-abort: if accuracy has not improved for this many
        consecutive evaluations *and* sits further than
        :data:`HOPELESS_GAP` below target, tuning reports failure
        without burning the rest of the budget.  Set to 0 to disable.
    mask_dead_devices:
        Graceful degradation: zero the gradient at devices whose aged
        window has collapsed before thresholding, so pulses (and their
        aging stress) are not wasted on devices that cannot respond and
        the per-layer ``max|grad|`` threshold is not anchored to an
        untunable weight's error.
    """

    target_accuracy: float = 0.9
    max_iterations: int = 150
    batch_size: int = 64
    threshold: float = 0.25
    step_fraction: float = 0.5
    decay_after: int = 4
    min_step_fraction: float = 0.05
    eval_every: int = 1
    patience_evals: int = 0
    mask_dead_devices: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.target_accuracy <= 1.0:
            raise ConfigurationError(
                f"target_accuracy must be in (0, 1], got {self.target_accuracy}"
            )
        if self.max_iterations < 1:
            raise ConfigurationError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigurationError(f"threshold must be in [0, 1], got {self.threshold}")
        if self.step_fraction <= 0:
            raise ConfigurationError(f"step_fraction must be > 0, got {self.step_fraction}")
        if self.decay_after < 0:
            raise ConfigurationError(f"decay_after must be >= 0, got {self.decay_after}")
        if not 0 < self.min_step_fraction <= self.step_fraction:
            raise ConfigurationError(
                "need 0 < min_step_fraction <= step_fraction, got "
                f"{self.min_step_fraction} vs {self.step_fraction}"
            )
        if self.eval_every < 1:
            raise ConfigurationError(f"eval_every must be >= 1, got {self.eval_every}")


@dataclass
class TuningResult:
    """Outcome of one tuning session."""

    converged: bool
    iterations: int
    final_accuracy: float
    initial_accuracy: float
    pulses_applied: int
    accuracy_trace: List[float] = field(default_factory=list)


class OnlineTuner:
    """Runs sign-based tuning sessions against a :class:`MappedNetwork`."""

    def __init__(self, config: Optional[TuningConfig] = None, seed: SeedLike = None) -> None:
        self.config = config if config is not None else TuningConfig()
        self._rng = ensure_rng(seed)

    def tune(
        self,
        network: MappedNetwork,
        x_tune: np.ndarray,
        y_tune: np.ndarray,
    ) -> TuningResult:
        """Tune ``network`` towards the target accuracy on the tuning set.

        Accuracy checks run on the full tuning set; gradient sweeps use
        random ``batch_size`` subsets.  Every sweep pulses the selected
        devices (aging them); evaluation itself applies no stress.

        Hardware reads between sweeps are memoized by the network
        (:meth:`~repro.mapping.network.MappedNetwork.effective_model`)
        and each sweep goes through ``apply_tuning_sweep`` → batched
        ``program_pulses``.
        """
        PROFILER.increment("tuning.sessions")
        with PROFILER.timer("tuning.session"):
            x_tune = np.asarray(x_tune, dtype=np.float64)
            y_tune = np.asarray(y_tune, dtype=np.float64)
            if len(x_tune) != len(y_tune):
                raise ConfigurationError("x_tune and y_tune lengths differ")
            result = self._tune_loop(network, x_tune, y_tune)
        PROFILER.increment("tuning.iterations", result.iterations)
        PROFILER.increment("tuning.pulses", result.pulses_applied)
        return result

    def _tune_loop(
        self,
        network: MappedNetwork,
        x_tune: np.ndarray,
        y_tune: np.ndarray,
    ) -> TuningResult:
        cfg = self.config
        initial = network.score(x_tune, y_tune)
        best = initial
        trace = [initial]
        pulses_before = network.total_pulses()
        stale_evals = 0

        if initial >= cfg.target_accuracy:
            return TuningResult(True, 0, initial, initial, 0, trace)

        accuracy = initial
        step_fraction = cfg.step_fraction
        decay_stale = 0
        for iteration in range(1, cfg.max_iterations + 1):
            idx = self._rng.choice(len(x_tune), size=min(cfg.batch_size, len(x_tune)), replace=False)
            grads = network.gradient_sign_matrices(x_tune[idx], y_tune[idx])
            network.apply_tuning_sweep(
                grads,
                cfg.threshold,
                step_fraction,
                mask_dead=cfg.mask_dead_devices,
            )

            if iteration % cfg.eval_every == 0 or iteration == cfg.max_iterations:
                accuracy = network.score(x_tune, y_tune)
                trace.append(accuracy)
                if accuracy >= cfg.target_accuracy:
                    return TuningResult(
                        True,
                        iteration,
                        accuracy,
                        initial,
                        network.total_pulses() - pulses_before,
                        trace,
                    )
                if accuracy > best + 1e-9:
                    best = accuracy
                    stale_evals = 0
                    decay_stale = 0
                else:
                    stale_evals += 1
                    decay_stale += 1
                if cfg.decay_after and decay_stale >= cfg.decay_after:
                    step_fraction = max(cfg.min_step_fraction, step_fraction / 2.0)
                    decay_stale = 0
                if (
                    cfg.patience_evals
                    and stale_evals >= cfg.patience_evals
                    and accuracy < cfg.target_accuracy - HOPELESS_GAP
                ):
                    break

        # ``iteration`` (not cfg.max_iterations): the patience break may
        # have stopped the loop early, and the result must report the
        # pulse sweeps actually spent.
        return TuningResult(
            False,
            iteration,
            accuracy,
            initial,
            network.total_pulses() - pulses_before,
            trace,
        )
