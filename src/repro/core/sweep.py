"""Parameter-sweep orchestration.

The ablation studies all share one shape: vary a parameter, rebuild the
relevant object, measure a few scalars, tabulate.  :class:`Sweep`
factors that out with deterministic per-point seeds and failure
isolation (one exploding point does not lose the rest of the sweep).

Every point's generator is derived from ``(entropy, parameter, value)``
only — no shared stream — so the evaluation order is irrelevant and the
sweep can fan out across worker processes
(:class:`repro.core.executor.ParallelExecutor`) with **bit-identical**
metrics: ``run(values, workers=4)`` equals ``run(values)`` except for
the wall-clock ``seconds`` field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.executor import ParallelExecutor, Task
from repro.exceptions import ConfigurationError
from repro.rng import derive_rng, ensure_rng


@dataclass
class SweepPoint:
    """One evaluated sweep point."""

    value: Any
    metrics: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SweepResult:
    """All points of one sweep, with per-metric accessors."""

    parameter: str
    points: List[SweepPoint] = field(default_factory=list)

    def successful(self) -> List[SweepPoint]:
        return [p for p in self.points if p.ok]

    def metric(self, name: str) -> List[float]:
        """Values of one metric across successful points (in order)."""
        return [p.metrics[name] for p in self.successful()]


def _evaluate_point(fn, entropy: int, parameter: str, value) -> dict:
    """Evaluate one point; the shared task body for serial AND parallel."""
    rng = derive_rng(entropy, f"{parameter}={value!r}")
    metrics = fn(value, rng)
    if not isinstance(metrics, dict):
        raise ConfigurationError(
            f"sweep fn must return a metrics dict, got {type(metrics)}"
        )
    return {str(k): float(v) for k, v in metrics.items()}


class Sweep:
    """Evaluate ``fn(value, rng)`` over a sequence of parameter values.

    ``fn`` returns a ``{metric_name: float}`` dict.  Each point gets a
    generator derived from ``(seed, parameter, repr(value))`` so adding
    or reordering points never changes another point's stream.
    """

    def __init__(self, parameter: str, fn: Callable[[Any, Any], Dict[str, float]],
                 seed=0) -> None:
        if not parameter:
            raise ConfigurationError("parameter name must be non-empty")
        self.parameter = parameter
        self.fn = fn
        self._entropy = int(ensure_rng(seed).integers(0, 2**63 - 1))

    def run(
        self, values: Sequence[Any], fail_fast: bool = False, workers: int = 1
    ) -> SweepResult:
        """Evaluate all ``values``; errors are captured per point.

        ``workers > 1`` fans the points out over a process pool with
        bit-identical metrics (per-point seeds are derivation-based, not
        sequential).  With ``fail_fast=True`` the first failing point's
        original exception propagates instead of being captured.
        """
        tasks = [
            Task(
                key=f"{self.parameter}={value!r}",
                fn=_evaluate_point,
                args=(self.fn, self._entropy, self.parameter, value),
            )
            for value in values
        ]
        outcomes = ParallelExecutor(workers=workers).run(tasks, reraise=fail_fast)

        result = SweepResult(parameter=self.parameter)
        for value, outcome in zip(values, outcomes):
            result.points.append(
                SweepPoint(
                    value=value,
                    metrics=outcome.value if outcome.ok else {},
                    error=outcome.error,
                    seconds=outcome.seconds,
                )
            )
        return result
