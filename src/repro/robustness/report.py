"""Survivability reporting for fault campaigns.

A campaign produces one :class:`SurvivabilityRecord` per grid point
(fault kind × severity × degradation on/off); the
:class:`SurvivabilityReport` aggregates them into the two curves that
matter for dependability analysis — accuracy vs fault rate and lifetime
degradation per fault class — and renders as JSON (round-trippable via
``to_dict``/``from_dict``) or a text table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis import render_table


@dataclass
class SurvivabilityRecord:
    """Outcome of one campaign grid point."""

    point: str
    fault_kind: str
    fault_rate: float
    degradation: bool
    lifetime_applications: int
    windows_survived: int
    tuning_success_rate: float
    final_accuracy: float
    failed: bool

    def to_dict(self) -> dict:
        return {
            "point": self.point,
            "fault_kind": self.fault_kind,
            "fault_rate": self.fault_rate,
            "degradation": self.degradation,
            "lifetime_applications": self.lifetime_applications,
            "windows_survived": self.windows_survived,
            "tuning_success_rate": self.tuning_success_rate,
            "final_accuracy": self.final_accuracy,
            "failed": self.failed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SurvivabilityRecord":
        return cls(
            point=str(d["point"]),
            fault_kind=str(d["fault_kind"]),
            fault_rate=float(d["fault_rate"]),
            degradation=bool(d["degradation"]),
            lifetime_applications=int(d["lifetime_applications"]),
            windows_survived=int(d["windows_survived"]),
            tuning_success_rate=float(d["tuning_success_rate"]),
            final_accuracy=float(d["final_accuracy"]),
            failed=bool(d["failed"]),
        )


@dataclass
class SurvivabilityReport:
    """Campaign-wide aggregation keyed by fault kind and severity."""

    workload: str
    scenario_key: str
    records: List[SurvivabilityRecord] = field(default_factory=list)
    #: Per-point perf-counter deltas (``repro.core.profiling.PerfDelta``
    #: dicts) captured around each simulation, in-process or in a pool
    #: worker; points replayed from the journal have none.
    #: Excluded from :meth:`to_dict` by default: they carry wall-clock
    #: noise, so serialized reports stay bit-identical across runs.
    perf: Dict[str, dict] = field(default_factory=dict)

    def add(self, record: SurvivabilityRecord) -> None:
        self.records.append(record)

    # -- lookups ----------------------------------------------------------
    def baseline(self) -> Optional[SurvivabilityRecord]:
        """The fault-free record (kind ``"none"``), if the grid had one."""
        for r in self.records:
            if r.fault_kind == "none":
                return r
        return None

    def fault_kinds(self) -> List[str]:
        """Distinct injected fault kinds, in first-seen order."""
        seen: Dict[str, None] = {}
        for r in self.records:
            if r.fault_kind != "none":
                seen.setdefault(r.fault_kind, None)
        return list(seen)

    def _select(
        self, kind: str, degradation: Optional[bool]
    ) -> List[SurvivabilityRecord]:
        return sorted(
            (
                r
                for r in self.records
                if r.fault_kind == kind
                and (degradation is None or r.degradation == degradation)
            ),
            key=lambda r: r.fault_rate,
        )

    def lifetime_degradation(
        self, kind: str, degradation: Optional[bool] = None
    ) -> List[Tuple[float, float]]:
        """``(fault_rate, lifetime / fault-free lifetime)`` per point.

        Ratios are ``inf`` when no fault-free baseline exists or it has
        zero lifetime.
        """
        base = self.baseline()
        denom = base.lifetime_applications if base is not None else 0
        return [
            (
                r.fault_rate,
                r.lifetime_applications / denom if denom else float("inf"),
            )
            for r in self._select(kind, degradation)
        ]

    # -- serialization -----------------------------------------------------
    def to_dict(self, include_perf: bool = False) -> dict:
        """JSON-ready dict; ``include_perf`` adds the per-point counters.

        Perf is opt-in because it carries wall-clock noise and skips
        replayed points — the default output is identical regardless of
        execution mode, journal state or machine speed.
        """
        out = {
            "workload": self.workload,
            "scenario_key": self.scenario_key,
            "records": [r.to_dict() for r in self.records],
        }
        if include_perf:
            out["perf"] = {name: dict(delta) for name, delta in self.perf.items()}
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "SurvivabilityReport":
        return cls(
            workload=str(d["workload"]),
            scenario_key=str(d["scenario_key"]),
            records=[SurvivabilityRecord.from_dict(r) for r in d.get("records", [])],
            perf={str(k): dict(v) for k, v in d.get("perf", {}).items()},
        )

    # -- rendering ---------------------------------------------------------
    def render_text(self) -> str:
        """Plain-text table of all grid points plus per-kind summaries."""
        header = (
            f"Survivability — {self.workload} / {self.scenario_key.upper()}"
        )
        lines = [header, "=" * len(header), ""]
        cols = ["point", "kind", "rate", "degr", "lifetime", "wins", "tune ok", "acc"]
        rows = [
            [
                r.point,
                r.fault_kind,
                f"{r.fault_rate:g}",
                "on" if r.degradation else "off",
                str(r.lifetime_applications),
                str(r.windows_survived),
                f"{r.tuning_success_rate:.0%}",
                f"{r.final_accuracy:.3f}",
            ]
            for r in self.records
        ]
        lines.append(render_table(cols, rows))
        base = self.baseline()
        if base is not None:
            lines.append("")
            lines.append(
                f"fault-free baseline: lifetime={base.lifetime_applications} "
                f"applications, accuracy={base.final_accuracy:.3f}"
            )
            for kind in self.fault_kinds():
                for flag, label in ((False, "degradation off"), (True, "degradation on")):
                    curve = self.lifetime_degradation(kind, degradation=flag)
                    if curve:
                        worst = min(ratio for _rate, ratio in curve)
                        lines.append(
                            f"  {kind} ({label}): worst lifetime ratio "
                            f"{worst:.2f}x over {len(curve)} rate(s)"
                        )
        if self.perf:
            lines.append("")
            lines.append("perf:")
            for name, delta in self.perf.items():
                counters = delta.get("counters", {})
                elapsed = float(delta.get("elapsed_s", 0.0))
                windows = int(counters.get("lifetime.windows", 0))
                iterations = int(counters.get("tuning.iterations", 0))
                reads = int(counters.get("network.hardware_reads", 0))
                lines.append(
                    f"  {name}: windows={windows}, tuning iterations={iterations}, "
                    f"hardware reads={reads}, elapsed={elapsed:.2f}s"
                )
        return "\n".join(lines)
