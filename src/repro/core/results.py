"""Result records of the lifetime engine.

Every record knows how to round-trip itself through a JSON-ready dict
(``to_dict``/``from_dict``) — the single source of truth used by
:mod:`repro.io` for files and by the run journal the execution engine
stores results in.  The round trip is exact: ints stay ints and floats
survive bit-identically (JSON uses shortest-round-trip float text), so
a replayed result compares equal to a freshly computed one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class WindowRecord:
    """One application window (inference + drift + remap + tune)."""

    window_index: int
    applications_total: int
    tuning_iterations: int
    converged: bool
    accuracy_after: float
    pulses_total: int
    dead_fraction: float
    #: Mean aged upper resistance bound per mapped layer index.
    aged_upper_by_layer: Dict[int, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready dict (layer keys become strings)."""
        return {
            "window_index": self.window_index,
            "applications_total": self.applications_total,
            "tuning_iterations": self.tuning_iterations,
            "converged": self.converged,
            "accuracy_after": self.accuracy_after,
            "pulses_total": self.pulses_total,
            "dead_fraction": self.dead_fraction,
            "aged_upper_by_layer": {
                str(k): v for k, v in self.aged_upper_by_layer.items()
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WindowRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(
            window_index=int(d["window_index"]),
            applications_total=int(d["applications_total"]),
            tuning_iterations=int(d["tuning_iterations"]),
            converged=bool(d["converged"]),
            accuracy_after=float(d["accuracy_after"]),
            pulses_total=int(d["pulses_total"]),
            dead_fraction=float(d["dead_fraction"]),
            aged_upper_by_layer={
                int(k): float(v) for k, v in d["aged_upper_by_layer"].items()
            },
        )


@dataclass
class LifetimeResult:
    """Full trajectory of one scenario until failure (or horizon)."""

    scenario_key: str
    lifetime_applications: int
    failed: bool
    windows: List[WindowRecord] = field(default_factory=list)
    software_accuracy: float = 0.0
    target_accuracy: float = 0.0

    @property
    def windows_survived(self) -> int:
        """Number of windows completed before failure."""
        return sum(1 for w in self.windows if w.converged)

    def iteration_trace(self) -> List[int]:
        """Tuning iterations per window (the Fig. 10 series)."""
        return [w.tuning_iterations for w in self.windows]

    def layer_aging_trace(self) -> Dict[int, List[float]]:
        """Per-layer aged-upper-bound trajectory (the Fig. 11 series)."""
        out: Dict[int, List[float]] = {}
        for w in self.windows:
            for idx, value in w.aged_upper_by_layer.items():
                out.setdefault(idx, []).append(value)
        return out

    def to_dict(self) -> dict:
        """JSON-ready dict of the full trajectory."""
        return {
            "scenario_key": self.scenario_key,
            "lifetime_applications": self.lifetime_applications,
            "failed": self.failed,
            "software_accuracy": self.software_accuracy,
            "target_accuracy": self.target_accuracy,
            "windows": [w.to_dict() for w in self.windows],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LifetimeResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            scenario_key=str(d["scenario_key"]),
            lifetime_applications=int(d["lifetime_applications"]),
            failed=bool(d["failed"]),
            software_accuracy=float(d.get("software_accuracy", 0.0)),
            target_accuracy=float(d.get("target_accuracy", 0.0)),
            windows=[WindowRecord.from_dict(w) for w in d.get("windows", [])],
        )


@dataclass
class ScenarioComparison:
    """Table-I-style comparison of scenarios on one workload."""

    workload: str
    results: Dict[str, LifetimeResult] = field(default_factory=dict)
    baseline_key: str = "t+t"

    def add(self, result: LifetimeResult) -> None:
        self.results[result.scenario_key] = result

    def improvement(self, key: str) -> Optional[float]:
        """Lifetime ratio vs the baseline scenario (None if missing)."""
        if self.baseline_key not in self.results or key not in self.results:
            return None
        base = self.results[self.baseline_key].lifetime_applications
        if base == 0:
            return float("inf")
        return self.results[key].lifetime_applications / base
