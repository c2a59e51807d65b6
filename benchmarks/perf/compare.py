"""Noise-aware comparison of two suite results (``run.py compare``).

For every (workload, metric) pair present in both files it reports each
side's median, quartiles and sample count, and a verdict:

* ``worse`` — the median moved in the bad direction by more than the
  metric's bound (``BENCHMARK.json``);
* ``unresolved`` — either side's quartile spread, as a share of its
  median, exceeds the bound, so a change that size cannot be told from
  noise (unless every new sample beats every old one);
* ``ok`` — neither of the above;
* ``info`` — a per-layer metric, which has no bound.
"""

from __future__ import annotations

import json
import pathlib
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median (0 for one sample)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(
    old: Sequence[float], new: Sequence[float], better: str, bound: Optional[float]
) -> str:
    if bound is None:
        return "info"
    sign = 1.0 if better == "lower" else -1.0
    if all(sign * n < sign * o for n in new for o in old):
        return "ok"
    if spread(old) > bound or spread(new) > bound:
        return "unresolved"
    base = statistics.median(old)
    if base and sign * (statistics.median(new) - base) / abs(base) > bound:
        return "worse"
    return "ok"


@dataclass
class Row:
    workload: str
    metric: str
    unit: str
    old: Tuple[float, float, float, int]
    new: Tuple[float, float, float, int]
    verdict: str

    @property
    def change(self) -> Optional[float]:
        return (self.new[1] - self.old[1]) / abs(self.old[1]) if self.old[1] else None


def compare(old: dict, new: dict, registry: dict) -> List[Row]:
    """Rows for every (workload, metric) pair both results carry."""
    specs: Dict[str, dict] = {m["name"]: m for m in registry["end_to_end"]}
    specs.update({m["name"]: {**m, "bound": None} for m in registry["per_layer"]})
    rows: List[Row] = []
    for workload, new_w in new["workloads"].items():
        old_w = old["workloads"].get(workload)
        if old_w is None:
            continue
        for metric, new_m in new_w["metrics"].items():
            if metric not in old_w["metrics"] or metric not in specs:
                continue
            spec = specs[metric]
            a, b = old_w["metrics"][metric]["values"], new_m["values"]
            rows.append(
                Row(
                    workload,
                    metric,
                    spec["unit"],
                    (*quartiles(a), len(a)),
                    (*quartiles(b), len(b)),
                    verdict(a, b, spec["better"], spec["bound"]),
                )
            )
    return rows


def render(rows: List[Row]) -> str:
    lines = [
        f"{'workload':<15} {'metric':<32} {'old median [q1, q3] n':>34} "
        f"{'new median [q1, q3] n':>34} {'change':>8}  verdict"
    ]
    for r in rows:
        change = "" if r.change is None else f"{100 * r.change:+.1f}%"
        cells = [f"{m:.4g} [{lo:.4g}, {hi:.4g}] {n}" for lo, m, hi, n in (r.old, r.new)]
        lines.append(
            f"{r.workload:<15} {r.metric:<32} {cells[0]:>34} {cells[1]:>34} "
            f"{change:>8}  {r.verdict}"
        )
    return "\n".join(lines)


def main(old_path: pathlib.Path, new_path: pathlib.Path, registry: dict) -> int:
    """Print the comparison; exit status 1 when any metric got worse."""
    rows = compare(
        json.loads(old_path.read_text()), json.loads(new_path.read_text()), registry
    )
    print(render(rows))
    return 1 if any(r.verdict == "worse" for r in rows) else 0
