"""The benchmark's workloads: set-up, the timed section, and the checks.

Every workload runs a preset of :mod:`repro.core.presets` on its default
die (hardware repeat 0), so the simulated work is the same on every
run.  ``--seed`` only permutes the order in which the workload runs
independent operations — Table I scenarios, campaign grid points, the
snapshot a resume starts from — and the program guarantees that order
cannot change a result.  Each run checks that guarantee through the
printed ``result_digest``.  Letting the seed pick the die instead would
make the amount of simulated work itself vary: across ten dies the
timed section's quartile spread is 15-18 % of its median (README), more
than any regression bound the benchmark could use.

A run sets up (dataset + training, as every CLI invocation pays),
repeats the timed section until ``--seconds`` have passed (at least
once), then sets up again until it has :data:`SETUPS` set-up times.
``setup_s`` and ``wall_s`` are medians.
"""

from __future__ import annotations

import pathlib
import random
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import layers
from repro.core.checkpoint import CheckpointManager, RunJournal
from repro.core.executor import fingerprint
from repro.core.framework import AgingAwareFramework
from repro.core.lifetime import LifetimeConfig, LifetimeSimulator
from repro.core.presets import ExperimentPreset, lenet_glyphs, vggnet_shapes
from repro.core.results import LifetimeResult
from repro.robustness.campaign import FaultCampaign, build_grid
from trace import Tracer, summarize

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: What an untraced run reports, in ``BENCHMARK.json`` order.
E2E_METRICS = ("setup_s", "wall_s", "peak_rss_mb")
TABLE1 = ("t+t", "st+t", "st+at")
#: Pool workers of the campaign: the benchmark's load is sized for 2 cores.
CAMPAIGN_WORKERS = 2
CHECKPOINT_EVERY = 2


@dataclass
class Unit:
    """Outcome of one timed section."""

    wall_s: float
    #: Program operations attempted (scenario runs, grid points, ...).
    operations: int
    #: Named correctness checks; ``False`` counts as a failure.
    checks: Dict[str, bool]
    #: Hash of the simulated results, identical for every seed.
    digest: str
    #: Layer numbers the harness measured around its own calls.
    layer: Dict[str, float] = field(default_factory=dict)
    #: What the seed chose, for the log.
    note: str = ""


def well_formed(result: LifetimeResult, cfg: LifetimeConfig) -> bool:
    """A lifetime trajectory is consistent with the simulator's rules."""
    w = result.windows
    if not w or len(w) > cfg.max_windows:
        return False
    if [r.window_index for r in w] != list(range(len(w))):
        return False
    apps = [r.applications_total for r in w]
    if apps != [(i + 1) * cfg.apps_per_window for i in range(len(w))]:
        return False
    pulses = [r.pulses_total for r in w]
    if pulses != sorted(pulses) or not all(r.converged for r in w[:-1]):
        return False
    if result.failed == w[-1].converged:
        return False
    if not result.failed and len(w) != cfg.max_windows:
        return False
    survived = len(w) - 1 if result.failed else len(w)
    return result.lifetime_applications == survived * cfg.apps_per_window


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- timed sections ---------------------------------------------------------
def table1_unit(fw: AgingAwareFramework, seed: int, tmp: pathlib.Path) -> Unit:
    """The three Table I scenarios, to failure, in a seed-chosen order."""
    order = random.Random(seed).sample(TABLE1, len(TABLE1))
    start = time.perf_counter()
    results = {key: fw.run_scenario(key) for key in order}
    wall = time.perf_counter() - start
    cfg = fw.config.lifetime
    tt = results["t+t"].lifetime_applications
    return Unit(
        wall_s=wall,
        operations=len(order),
        checks={
            f"lifetime.well_formed[{key}]": well_formed(r, cfg)
            for key, r in results.items()
        },
        digest=fingerprint([results[key].to_dict() for key in TABLE1]),
        layer={
            "lifetime.gain_st_t": _ratio(results["st+t"].lifetime_applications, tt),
            "lifetime.gain_st_at": _ratio(results["st+at"].lifetime_applications, tt),
        },
        note="scenario order " + ", ".join(order),
    )


def _grid(seed: int):
    grid = build_grid(kinds=("stuck_at", "drift"), rates=(0.0005, 0.002))
    random.Random(seed).shuffle(grid)
    return grid


def _report_digest(report) -> str:
    records = sorted(report.to_dict()["records"], key=lambda r: r["point"])
    return fingerprint(records)


def _campaign(fw: AgingAwareFramework, workers: int, journal: RunJournal):
    return FaultCampaign(fw, "st+t", workers=workers, journal=journal)


def campaign_unit(fw: AgingAwareFramework, seed: int, tmp: pathlib.Path) -> Unit:
    """A 9-point fault grid over 2 workers, then a relaunch on its journal."""
    grid = _grid(seed)
    path = tmp / "journal.jsonl"
    start = time.perf_counter()
    report = _campaign(fw, CAMPAIGN_WORKERS, RunJournal(path)).run(grid)
    launched = time.perf_counter()
    journal = RunJournal(path)
    again = _campaign(fw, CAMPAIGN_WORKERS, journal).run(grid)
    end = time.perf_counter()
    reexecuted = len(grid) - journal.skipped
    complete = [r.point for r in report.records] == [p.name for p in grid]
    return Unit(
        wall_s=end - start,
        operations=len(grid) + 1,
        checks={
            "campaign.complete": complete,
            "journal.relaunch_identical": again.to_dict() == report.to_dict(),
            "journal.relaunch_reexecuted_zero": reexecuted == 0,
        },
        digest=_report_digest(report),
        layer={
            "executor.run_s": launched - start,
            "journal.relaunch_s": end - launched,
            "journal.relaunch_reexecuted": reexecuted,
        },
        note="grid order " + ", ".join(p.name for p in grid),
    )


def resume_unit(fw: AgingAwareFramework, seed: int, tmp: pathlib.Path) -> Unit:
    """ST+T with a snapshot every 2 windows, then a resume to the end."""
    directory = tmp / "checkpoints"
    start = time.perf_counter()
    full = fw.run_scenario(
        "st+t", checkpoint_every=CHECKPOINT_EVERY, checkpoint_dir=directory
    )
    snapshots = CheckpointManager(directory).entries()
    # The resume point: a seed-chosen snapshot from the middle half.
    pick = snapshots[
        random.Random(seed).randint(len(snapshots) // 4, (3 * len(snapshots)) // 4)
    ]
    resumed = LifetimeSimulator.resume(pick.path).run()
    wall = time.perf_counter() - start
    saves = full.windows_survived // CHECKPOINT_EVERY
    return Unit(
        wall_s=wall,
        operations=2,
        checks={
            "lifetime.well_formed[st+t]": well_formed(full, fw.config.lifetime),
            "checkpoint.saves_expected": len(snapshots) == saves,
            "checkpoint.resume_identical": resumed.to_dict() == full.to_dict(),
        },
        digest=fingerprint(full.to_dict()),
        layer={"checkpoint.mb_written": sum(s.bytes for s in snapshots) / 1e6},
        note=f"resume from window {pick.window} of {len(full.windows)}",
    )


# -- traced passes ----------------------------------------------------------
@dataclass
class Traced:
    """Outcome of a traced pass; its spans stay in the tracer."""

    overhead_frac: float
    operations: int
    checks: Dict[str, bool]
    layer: Dict[str, float] = field(default_factory=dict)


def _median(units: List[Unit], key: Optional[str] = None) -> float:
    return statistics.median(u.layer[key] if key else u.wall_s for u in units)


def traced_unit(
    wl: "Workload",
    fw: AgingAwareFramework,
    seed: int,
    tmp: pathlib.Path,
    tracer: Tracer,
    units: List[Unit],
) -> Traced:
    """The timed section once more, with every shim installed."""
    layers.install(tracer)
    traced = wl.unit(fw, seed, tmp)
    tracer.restore()
    return Traced(
        overhead_frac=traced.wall_s / _median(units) - 1.0,
        operations=traced.operations,
        checks={"trace.results_unchanged": traced.digest == units[0].digest},
    )


def traced_campaign(
    wl: "Workload",
    fw: AgingAwareFramework,
    seed: int,
    tmp: pathlib.Path,
    tracer: Tracer,
    units: List[Unit],
) -> Traced:
    """Serial runs of the grid: untraced for the speedup, then traced.

    Shims in this process cannot see into pool workers, so the layer
    numbers come from a serial campaign of the same grid.
    """
    grid = _grid(seed)
    start = time.perf_counter()
    serial = _campaign(fw, 1, RunJournal(tmp / "serial.jsonl")).run(grid)
    serial_s = time.perf_counter() - start
    layers.install(tracer)
    start = time.perf_counter()
    with tracer.span(layers.CAMPAIGN):
        traced = _campaign(fw, 1, RunJournal(tmp / "traced.jsonl")).run(grid)
    traced_s = time.perf_counter() - start
    tracer.restore()
    parallel_s = _median(units, "executor.run_s")
    same = _report_digest(serial) == units[0].digest
    return Traced(
        overhead_frac=traced_s / serial_s - 1.0,
        operations=2 * len(grid),
        checks={
            "campaign.parallel_equals_serial": same,
            "trace.results_unchanged": traced.to_dict() == serial.to_dict(),
        },
        layer={"executor.speedup_vs_serial": serial_s / parallel_s},
    )


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is recorded in ``BENCHMARK.json``."""

    name: str
    preset: Callable[[], ExperimentPreset]
    #: Training styles the workload's scenarios need (``True`` = skewed).
    trainings: Tuple[bool, ...]
    unit: Callable[[AgingAwareFramework, int, pathlib.Path], Unit]
    traced: Callable[..., Traced] = traced_unit


WORKLOADS: Dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload("lenet-table1", lenet_glyphs, (False, True), table1_unit),
        Workload(
            "vgg-table1", lambda: vggnet_shapes(fast=True), (False, True), table1_unit
        ),
        Workload(
            "fault-campaign",
            lambda: lenet_glyphs(fast=True),
            (True,),
            campaign_unit,
            traced_campaign,
        ),
        Workload("lenet-resume", lenet_glyphs, (True,), resume_unit),
    )
}


# -- one run ------------------------------------------------------------------
def set_up(wl: Workload) -> Tuple[AgingAwareFramework, Dict[str, float], str]:
    """Build the dataset and train the models the workload needs.

    Returns the trained framework, the phase times and a digest of the
    trained weights (training is deterministic, so every set-up of a
    run must produce the same digest).
    """
    preset = wl.preset()
    times = {"training.baseline_s": 0.0, "training.skewed_s": 0.0}
    start = time.perf_counter()
    dataset = preset.make_dataset()
    times["data.build_s"] = time.perf_counter() - start
    fw = AgingAwareFramework(
        preset.build_network, dataset, preset.framework_config, seed=preset.seed
    )
    for skewed in wl.trainings:
        began = time.perf_counter()
        fw.trained_model(skewed)
        key = "training.skewed_s" if skewed else "training.baseline_s"
        times[key] = time.perf_counter() - began
    times["setup_s"] = time.perf_counter() - start
    weights = fingerprint([fw.trained_model(s).get_weights() for s in wl.trainings])
    return fw, times, weights


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


@dataclass
class RunReport:
    """Everything one ``run.py --workload`` invocation reports."""

    metrics: Dict[str, float]
    checks: Dict[str, bool]
    operations: int
    digest: str
    notes: List[str]

    @property
    def failed_checks(self) -> List[str]:
        return [name for name, ok in self.checks.items() if not ok]


def run(
    name: str, seed: int, seconds: float, trace: bool, out_dir: pathlib.Path
) -> RunReport:
    """Set up, time the workload, check it and (traced) break it down."""
    wl = WORKLOADS[name]
    fw, setup_times, weights = set_up(wl)
    scratch = out_dir / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    units: List[Unit] = []
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            units.append(wl.unit(fw, seed, pathlib.Path(tmp)))
    tracer = Tracer()
    if trace:
        with tracer, tempfile.TemporaryDirectory(dir=scratch) as tmp:
            traced = wl.traced(wl, fw, seed, pathlib.Path(tmp), tracer, units)
    # The remaining set-ups run after the timed part, with its framework
    # released, so at most one trained framework is alive at a time (as
    # in a CLI invocation) and peak_rss_mb is not the harness's doing.
    del fw
    times, digests = [setup_times], {weights}
    for _ in range(SETUPS - 1):
        setup_times, weights = set_up(wl)[1:]
        times.append(setup_times)
        digests.add(weights)

    checks = {"training.deterministic": len(digests) == 1}
    setup_median = {key: statistics.median(t[key] for t in times) for key in times[0]}
    first = units[0]
    for unit in units:
        for check, ok in unit.checks.items():
            checks[check] = checks.get(check, True) and ok
    checks["results.repeatable"] = len({u.digest for u in units}) == 1
    operations = sum(u.operations for u in units)
    notes = [first.note, f"{len(units)} timed section(s)"]

    if not trace:
        values = (setup_median["setup_s"], _median(units), peak_rss_mb())
        metrics = dict(zip(E2E_METRICS, values))
        return RunReport(metrics, checks, operations, first.digest, notes)

    checks.update(traced.checks)
    harness = {key: 0.0 for key in layers.HARNESS_METRICS}
    harness.update({k: v for k, v in setup_median.items() if k in harness})
    harness.update(first.layer)
    harness.update(traced.layer)
    harness["trace.overhead_frac"] = traced.overhead_frac
    metrics = layers.layer_metrics(tracer.spans, harness)
    windows = summarize(layers.window_ms(tracer.spans))
    tail = (
        f", p{100 * windows['tail_q']:g} {windows['tail']:.1f} ms"
        if "tail" in windows
        else " (too few windows for a tail percentile)"
    )
    notes.append(f"window p50 {windows.get('p50', 0.0):.1f} ms{tail}, n={windows['n']}")
    path = out_dir / f"trace-{name}.jsonl"
    tracer.dump(path, workload=name, repetition=0)
    notes.append(f"{len(tracer.spans)} spans written to {path}")
    return RunReport(
        metrics, checks, operations + traced.operations, first.digest, notes
    )
