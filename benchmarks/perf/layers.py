"""Which program calls the traced pass wraps, and the layer metrics.

:func:`install` patches the layer boundaries of ``repro`` — each entry
of :func:`shims` names the owner (a class, or the module whose global a
caller looks up), the attribute and the span it feeds.  Methods are
patched on the defining class because the program builds its own
mappers, tuners and simulators inside ``run_scenario``.

:func:`layer_metrics` turns the recorded spans, plus the numbers the
harness measured around the calls it makes itself, into the
``per_layer`` metrics declared in ``BENCHMARK.json``.  It reads spans
only, so the unit tests drive it with synthetic spans.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Mapping

from trace import Span, Tracer, children, percentile, self_times, unattributed_frac

RUN = "lifetime.run"
DRIFT = "crossbar.drift"
POINT = "framework.run_scenario"
#: Harness span around a serial campaign; its direct children are points.
CAMPAIGN = "campaign.serial"
READ = "crossbar.read"

#: Table I scenario keys and the suffix their metrics use.
SCENARIO_SUFFIX = {"t+t": "tt", "st+t": "st_t", "st+at": "st_at"}

#: Layer metrics the harness measures itself (not from spans); every
#: workload reports them, as 0 where the layer does not run.
HARNESS_METRICS = (
    "data.build_s",
    "training.baseline_s",
    "training.skewed_s",
    "lifetime.gain_st_t",
    "lifetime.gain_st_at",
    "executor.run_s",
    "executor.speedup_vs_serial",
    "journal.relaunch_s",
    "journal.relaunch_reexecuted",
    "checkpoint.mb_written",
    "trace.overhead_frac",
)

#: ``(span name, metric prefix)`` pairs reported as total inclusive
#: seconds plus a call count.
_TIMED_CALLS = (
    ("crossbar.program", "crossbar.program"),
    ("crossbar.pulse", "crossbar.pulse"),
    ("device.aged_bounds", "device.aged_bounds"),
    ("faults.apply", "faults.apply"),
)

_NN_TYPES = ("conv", "dense", "pool", "activation")


def _annotate_run(args: tuple, result) -> Dict[str, Any]:
    last = result.windows[-1].pulses_total if result.windows else 0
    return {"scenario": result.scenario_key, "pulses": last}


def _annotate_select(args: tuple, result) -> Dict[str, Any]:
    mapper = args[0]
    return {"candidates": len(mapper.history[-1].scores)}


def _annotate_tune(args: tuple, result) -> Dict[str, Any]:
    return {"iterations": result.iterations, "converged": result.converged}


def shims() -> List[tuple]:
    """``(owner, attribute, span name, annotate)`` for every shim."""
    from repro.core import lifetime
    from repro.core.checkpoint import CheckpointManager, RunJournal
    from repro.core.framework import AgingAwareFramework
    from repro.core.lifetime import LifetimeSimulator
    from repro.crossbar.crossbar import Crossbar
    from repro.device.aging import ArrheniusAging
    from repro.mapping.aging_aware import AgingAwareMapper
    from repro.mapping.network import MappedLayer, MappedNetwork
    from repro.nn.layers.activation import Activation
    from repro.nn.layers.conv import Conv2D
    from repro.nn.layers.dense import Dense
    from repro.nn.layers.pool import AvgPool2D, MaxPool2D
    from repro.nn.model import Sequential
    from repro.robustness.schedule import FaultSchedule
    from repro.tuning.online import OnlineTuner

    table = [
        (AgingAwareFramework, "run_scenario", POINT, None),
        (LifetimeSimulator, "run", RUN, _annotate_run),
        (FaultSchedule, "apply", "faults.apply", None),
        (MappedNetwork, "apply_drift", DRIFT, None),
        (MappedNetwork, "map_network", "mapping.map_network", None),
        (AgingAwareMapper, "select_range", "mapping.select_range", _annotate_select),
        (OnlineTuner, "tune", "tuning.tune", _annotate_tune),
        (MappedNetwork, "apply_tuning_sweep", "tuning.sweep", None),
        (MappedNetwork, "effective_model", "network.effective_model", None),
        (MappedLayer, "hardware_matrix", "network.hardware_matrix", None),
        # Window bookkeeping: attributed so the reconciliation adds up.
        (MappedNetwork, "total_pulses", "network.bookkeeping", None),
        (MappedNetwork, "dead_fraction", "network.bookkeeping", None),
        (MappedNetwork, "aging_by_layer", "network.bookkeeping", None),
        (Sequential, "forward", "nn.forward", None),
        (Sequential, "backward", "nn.backward", None),
        (Crossbar, "program", "crossbar.program", None),
        (Crossbar, "program_targets", "crossbar.program", None),
        (Crossbar, "program_pulses", "crossbar.pulse", None),
        (Crossbar, "conductances", READ, None),
        (Crossbar, "read_conductances", READ, None),
        (ArrheniusAging, "aged_bounds", "device.aged_bounds", None),
        (lifetime, "capture_simulator", "checkpoint.capture", None),
        (CheckpointManager, "save", "checkpoint.save", None),
        (lifetime, "load_checkpoint", "checkpoint.load", None),
        (lifetime, "restore_simulator", "checkpoint.restore", None),
        (RunJournal, "record", "journal.record", None),
    ]
    for kind, classes in (
        ("conv", (Conv2D,)),
        ("dense", (Dense,)),
        ("pool", (MaxPool2D, AvgPool2D)),
        ("activation", (Activation,)),
    ):
        for cls in classes:
            for method in ("forward", "backward"):
                table.append((cls, method, f"nn.{kind}.{method}", None))
    return table


def install(tracer: Tracer) -> None:
    """Patch every shim into the program (undo with ``tracer.restore``)."""
    for owner, attr, name, annotate in shims():
        tracer.patch(owner, attr, name, annotate)


def window_ms(spans: List[Span]) -> List[float]:
    """Window durations: from one drift of a run to the next (or run end)."""
    kids = children(spans)
    out: List[float] = []
    for run in spans:
        if run.name != RUN:
            continue
        starts = [sp.start for sp in kids[run.id] if sp.name == DRIFT]
        for begin, end in zip(starts, starts[1:] + [run.end]):
            out.append(1000.0 * (end - begin))
    return out


def layer_metrics(
    spans: Iterable[Span], harness: Mapping[str, float]
) -> Dict[str, float]:
    """Every ``per_layer`` metric from a traced pass.

    ``harness`` carries :data:`HARNESS_METRICS`; everything else is
    read off the spans.  Times are seconds summed over the pass
    (inclusive of child spans unless the metric says self time).
    """
    spans = list(spans)
    selfs = self_times(spans)
    kids = children(spans)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for sp in spans:
        by_name[sp.name].append(sp)

    def total(name: str) -> float:
        return sum(sp.duration for sp in by_name[name])

    def self_total(name: str) -> float:
        return sum(selfs[sp.id] for sp in by_name[name])

    def attr_sum(name: str, key: str) -> float:
        return sum((sp.attrs or {}).get(key, 0) for sp in by_name[name])

    out: Dict[str, float] = {name: float(harness[name]) for name in HARNESS_METRICS}

    windows = window_ms(spans)
    out["lifetime.windows"] = len(windows)
    out["lifetime.window_ms.p50"] = percentile(windows, 0.5) if windows else 0.0
    out["lifetime.window_ms.p90"] = percentile(windows, 0.9) if windows else 0.0
    for key, suffix in SCENARIO_SUFFIX.items():
        out[f"lifetime.wall_s.{suffix}"] = sum(
            sp.duration
            for sp in by_name[RUN]
            if (sp.attrs or {}).get("scenario") == key
        )
    out["lifetime.unattributed_frac"] = unattributed_frac(spans, RUN)

    # The candidate search scores each candidate with nn forward passes:
    # ``select_range_s`` is the whole search, ``select_range_self_s``
    # what is left of it outside the traced layers below it.
    candidates = attr_sum("mapping.select_range", "candidates")
    out["mapping.map_network_s"] = self_total("mapping.map_network")
    out["mapping.select_range_s"] = total("mapping.select_range")
    out["mapping.select_range_self_s"] = self_total("mapping.select_range")
    out["mapping.candidates_scored"] = candidates
    out["mapping.ms_per_candidate"] = (
        1000.0 * out["mapping.select_range_s"] / candidates if candidates else 0.0
    )

    sessions = by_name["tuning.tune"]
    out["tuning.sessions"] = len(sessions)
    out["tuning.iterations"] = attr_sum("tuning.tune", "iterations")
    out["tuning.converged_frac"] = (
        attr_sum("tuning.tune", "converged") / len(sessions) if sessions else 0.0
    )
    out["tuning.tune_s"] = self_total("tuning.tune")
    out["tuning.sweep_s"] = total("tuning.sweep")

    for direction in ("forward", "backward"):
        out[f"nn.{direction}_s"] = total(f"nn.{direction}")
        out[f"nn.{direction}_calls"] = len(by_name[f"nn.{direction}"])
        for kind in _NN_TYPES:
            out[f"nn.{kind}.{direction}_s"] = total(f"nn.{kind}.{direction}")
    lookups = by_name["network.effective_model"]
    rebuilds = sum(
        1
        for sp in lookups
        if any(k.name == "network.hardware_matrix" for k in kids.get(sp.id, []))
    )
    out["nn.effective_model_reuse_frac"] = (
        1.0 - rebuilds / len(lookups) if lookups else 0.0
    )

    out["crossbar.drift_s"] = total(DRIFT)
    for name, prefix in _TIMED_CALLS:
        out[f"{prefix}_s"] = total(name)
        out[f"{prefix}_calls"] = len(by_name[name])
    reads = by_name[READ]
    read_ids = {sp.id for sp in reads}
    out["crossbar.read_s"] = self_total(READ)
    out["crossbar.read_calls"] = sum(1 for sp in reads if sp.parent not in read_ids)
    out["crossbar.pulses"] = attr_sum(RUN, "pulses")

    campaign_ids = {sp.id for sp in by_name[CAMPAIGN]}
    points = [sp.duration for sp in by_name[POINT] if sp.parent in campaign_ids]
    out["executor.point_s.p50"] = percentile(points, 0.5) if points else 0.0
    out["executor.point_s.max"] = max(points, default=0.0)

    out["journal.record_s"] = total("journal.record")
    out["journal.records"] = len(by_name["journal.record"])

    saves = len(by_name["checkpoint.save"])
    out["checkpoint.capture_s"] = total("checkpoint.capture")
    out["checkpoint.save_s"] = total("checkpoint.save")
    out["checkpoint.saves"] = saves
    out["checkpoint.mb_per_save"] = (
        out["checkpoint.mb_written"] / saves if saves else 0.0
    )
    out["checkpoint.load_s"] = total("checkpoint.load")
    out["checkpoint.restore_s"] = total("checkpoint.restore")
    return out
