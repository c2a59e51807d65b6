"""Shared fixtures for the benchmark harness.

Each benchmark module reproduces one table or figure of the paper (see
DESIGN.md §4).  Training runs and lifetime simulations are expensive, so
they are computed once per session and shared by every bench that needs
them: a workload's models are cached by its framework, and its lifetime
runs by the session's run journal.  Every bench writes its rendered
artefact (ASCII table/plot) to ``benchmarks/output/<name>.txt`` and
prints it, so ``pytest benchmarks/ --benchmark-only -s`` shows the full
reproduction and the output directory keeps it.
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.core import AgingAwareFramework, RunJournal
from repro.core.presets import ExperimentPreset, lenet_glyphs, vggnet_shapes
from repro.data.dataset import Dataset

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def output_dir() -> pathlib.Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture(scope="session")
def bench_workers() -> int:
    """Worker processes for the ablation sweeps.

    The ablations submit their points through the execution engine
    (:class:`repro.core.Sweep`), whose per-point seeds are derivation
    based — results are bit-identical at any worker count.  Set
    ``REPRO_BENCH_WORKERS=4`` to fan points out across processes;
    the default of 1 runs in-process.
    """
    return int(os.environ.get("REPRO_BENCH_WORKERS", "1"))


@pytest.fixture(scope="session")
def report(output_dir) -> Callable[[str, str], None]:
    """Write an artefact to the output dir and echo it to stdout."""

    def _report(name: str, text: str) -> None:
        path = output_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n===== {name} =====")
        print(text)

    return _report


@pytest.fixture(scope="session")
def run_journal(tmp_path_factory) -> RunJournal:
    """The session's one result store for lifetime runs.

    Benches pass it to ``compare``/``run_scenario_repeats``, so each
    (scenario, repeat) a session asks for is simulated once and
    replayed from the journal after that.
    """
    return RunJournal(tmp_path_factory.mktemp("runs") / "runs.jsonl")


@dataclass
class Lab:
    """One workload's framework, with the session's run journal."""

    preset: ExperimentPreset
    dataset: Dataset
    framework: AgingAwareFramework
    journal: RunJournal

    def baseline_model(self):
        return self.framework.trained_model(False)

    def skewed_model(self):
        return self.framework.trained_model(True)


def _make_lab(preset: ExperimentPreset, journal: RunJournal) -> Lab:
    dataset = preset.make_dataset()
    framework = AgingAwareFramework(
        preset.build_network, dataset, preset.framework_config, seed=preset.seed
    )
    return Lab(preset=preset, dataset=dataset, framework=framework, journal=journal)


@pytest.fixture(scope="session")
def lenet_lab(run_journal) -> Lab:
    """The LeNet-5/Cifar10 role (glyph digits)."""
    return _make_lab(lenet_glyphs(fast=False), run_journal)


@pytest.fixture(scope="session")
def vgg_lab(run_journal) -> Lab:
    """The VGG-16/Cifar100 role (textured shapes)."""
    return _make_lab(vggnet_shapes(fast=False), run_journal)
