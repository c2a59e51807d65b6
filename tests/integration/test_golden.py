"""Golden regression suite: pinned Table-I-style metrics.

Each test computes a metrics dict from a fixed-seed run and compares it
against a JSON snapshot in ``tests/integration/golden/``.  Integers and
booleans must match exactly (the seeds are fixed and every stream is
derivation-based); floats are compared with a per-suite tolerance that
absorbs BLAS/libm differences across platforms without hiding real
regressions.

When a change legitimately shifts the numbers (new default, calibration
fix), regenerate the snapshots with::

    PYTHONPATH=src python -m pytest tests/integration/test_golden.py --update-golden

then review the JSON diff before committing — every changed number is a
behaviour change you are signing off on (see CONTRIBUTING.md).
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    AgingAwareFramework,
    FrameworkConfig,
    LifetimeConfig,
    Sweep,
)
from repro.data import make_blobs
from repro.device import DeviceConfig
from repro.device.aging import AgingParams, ArrheniusAging
from repro.training import SkewedTrainingConfig, TrainConfig, build_mlp
from repro.tuning import TuningConfig
from tests.oracles import scalar_tuner, uncached_reads

GOLDEN_DIR = Path(__file__).parent / "golden"


def _compare_golden(request, name: str, actual: dict, rtol: float, atol: float):
    """Assert ``actual`` matches the named snapshot (or rewrite it)."""
    path = GOLDEN_DIR / f"{name}.json"
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden snapshot {path.name} rewritten; review the diff")
    if not path.exists():
        pytest.fail(
            f"missing golden snapshot {path}; generate it with --update-golden"
        )
    expected = json.loads(path.read_text())
    mismatches: list[str] = []
    _diff("", expected, actual, rtol, atol, mismatches)
    assert not mismatches, (
        f"{len(mismatches)} mismatch(es) against {path.name}:\n"
        + "\n".join(mismatches[:20])
    )


def _diff(prefix, expected, actual, rtol, atol, out):
    """Recursive comparison: exact for ints/bools/strs, tolerant floats."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            out.append(f"{prefix or '<root>'}: keys {sorted(expected)} != "
                       f"{sorted(actual) if isinstance(actual, dict) else actual}")
            return
        for key in expected:
            _diff(f"{prefix}.{key}" if prefix else key,
                  expected[key], actual[key], rtol, atol, out)
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            out.append(f"{prefix}: length {len(expected)} != "
                       f"{len(actual) if isinstance(actual, list) else actual}")
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            _diff(f"{prefix}[{i}]", e, a, rtol, atol, out)
    elif isinstance(expected, bool) or isinstance(actual, bool):
        if expected is not actual:
            out.append(f"{prefix}: {expected} != {actual}")
    elif isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        if isinstance(expected, int) and isinstance(actual, int):
            if expected != actual:
                out.append(f"{prefix}: {expected} != {actual} (exact int)")
        elif not math.isclose(expected, actual, rel_tol=rtol, abs_tol=atol):
            out.append(f"{prefix}: {expected!r} != {actual!r} "
                       f"(rtol={rtol}, atol={atol})")
    elif expected != actual:
        out.append(f"{prefix}: {expected!r} != {actual!r}")


# -- snapshot 1: the Table-I scenario comparison ------------------------------
def _miniature_framework() -> AgingAwareFramework:
    """Fixed-seed miniature of the Table I experiment (seconds, 1 core)."""
    data = make_blobs(n_samples=200, n_classes=3, n_features=4, spread=0.4, seed=3)
    config = FrameworkConfig(
        device=DeviceConfig(pulses_to_collapse=100, write_noise=0.05),
        train=TrainConfig(epochs=8),
        skewed=SkewedTrainingConfig(
            beta_scale=-1.0,
            lambda1=0.05,
            lambda2=1e-3,
            pretrain=TrainConfig(epochs=8),
            skew_epochs=4,
        ),
        lifetime=LifetimeConfig(
            apps_per_window=1000,
            max_windows=4,
            tuning=TuningConfig(max_iterations=25),
        ),
        tune_samples=64,
        target_fraction=0.9,
    )
    return AgingAwareFramework(
        lambda seed: build_mlp(4, 3, hidden=(12,), seed=seed), data, config, seed=7
    )


def _comparison_metrics(comparison) -> dict:
    metrics: dict = {"workload": comparison.workload}
    for key in sorted(comparison.results):
        r = comparison.results[key]
        last = r.windows[-1] if r.windows else None
        metrics[key] = {
            "lifetime_applications": r.lifetime_applications,
            "windows_survived": r.windows_survived,
            "n_windows": len(r.windows),
            "failed": r.failed,
            "software_accuracy": r.software_accuracy,
            "target_accuracy": r.target_accuracy,
            "final_accuracy": last.accuracy_after if last else 0.0,
            "final_dead_fraction": last.dead_fraction if last else 0.0,
            "tuning_iterations": r.iteration_trace(),
            "improvement_vs_tt": comparison.improvement(key),
        }
    return metrics


class TestGoldenComparison:
    def test_table1_miniature(self, request):
        comparison = _miniature_framework().compare()
        _compare_golden(
            request,
            "compare_blobs",
            _comparison_metrics(comparison),
            # Accuracies and ratios pass through training + float
            # reductions; allow small cross-platform drift.
            rtol=1e-6,
            atol=1e-9,
        )

    def test_table1_miniature_kernel_caches_disabled(self, request):
        """The kernel-layer caches must be invisible: with every read
        cache bypassed (tests/oracles), the run must still hit the exact
        same snapshot as the default cached path."""
        with uncached_reads() as calls:
            comparison = _miniature_framework().compare()
        assert calls["MappedNetwork.effective_model"] > 0
        if request.config.getoption("--update-golden"):
            pytest.skip("snapshot owned by test_table1_miniature")
        _compare_golden(
            request,
            "compare_blobs",
            _comparison_metrics(comparison),
            rtol=1e-6,
            atol=1e-9,
        )

    def test_table1_miniature_scalar_tuner(self, request):
        """The vectorized lifetime hot loop must be invisible too: the
        scalar reference tuner (tests/oracles) hits the exact same
        snapshot as the default vectorized path."""
        with scalar_tuner() as calls:
            comparison = _miniature_framework().compare()
        # The miniature never needs a tuning sweep (its snapshot records
        # zero iterations), so the reference bodies it exercises are the
        # per-call programming and the uncached aged windows.
        assert calls["MappedLayer.program"] > 0
        assert calls["Crossbar.aged_bounds"] > 0
        if request.config.getoption("--update-golden"):
            pytest.skip("snapshot owned by test_table1_miniature")
        _compare_golden(
            request,
            "compare_blobs",
            _comparison_metrics(comparison),
            rtol=1e-6,
            atol=1e-9,
        )


# -- cross-path kill-and-resume ------------------------------------------------
class TestCrossPathResume:
    """A checkpoint is path-agnostic: a snapshot written mid-run under
    the scalar reference path must resume **bit-identically** under the
    vectorized path (and match the uninterrupted vectorized run) — the
    on-disk state contains everything, and the two paths walk the same
    trajectory from any window boundary."""

    @pytest.fixture(scope="class")
    def overlapping_blobs(self):
        """Blobs that overlap enough for a 0.9 target to need tuning."""
        return make_blobs(n_samples=240, n_classes=3, n_features=4, spread=1.5, seed=3)

    @pytest.fixture(scope="class")
    def overlapping_mlp(self, overlapping_blobs):
        from repro.nn import Activation, Adam, Dense, Sequential
        from repro.training import train_baseline

        model = Sequential(
            [Dense(16), Activation("relu"), Dense(3)], optimizer=Adam(0.01), seed=5
        ).build((4,))
        train_baseline(model, overlapping_blobs, TrainConfig(epochs=25, l2_lambda=1e-4))
        return model

    def _make_sim(self, model, device_config, dataset, drift_magnitude):
        from repro.core.lifetime import LifetimeSimulator
        from repro.mapping import MappedNetwork

        network = MappedNetwork(model, device_config, seed=41)
        network.map_network()
        config = LifetimeConfig(
            apps_per_window=1000,
            drift_magnitude=drift_magnitude,
            max_windows=4,
            tuning=TuningConfig(target_accuracy=0.9, max_iterations=20),
        )
        return LifetimeSimulator(
            network,
            dataset.x_train[:96],
            dataset.y_train[:96],
            config=config,
            seed=42,
        )

    def _checkpoint_scalar_and_resume(self, tmp_path, make_sim):
        """Checkpoint every window under :func:`scalar_tuner`, then resume
        each snapshot on the production path; returns the plain result
        and the oracle's call counts."""
        from repro.core.checkpoint import CheckpointManager
        from repro.core.lifetime import LifetimeSimulator

        # Reference: uninterrupted run on the production path.
        plain = make_sim().run("t+t")

        # Kill-side: a scalar-path run that checkpoints every window.
        with scalar_tuner() as calls:
            checkpointed = make_sim().run(
                "t+t", checkpoint_every=1, checkpoint_dir=tmp_path, run_id="x"
            )
        assert checkpointed.to_dict() == plain.to_dict()

        # Resume each scalar-written snapshot on the production path.
        entries = CheckpointManager(tmp_path).entries()
        assert len(entries) == len(plain.windows)
        for entry in entries:
            resumed = LifetimeSimulator.resume(entry.path).run()
            assert resumed.to_dict() == plain.to_dict(), (
                f"cross-path resume at window {entry.window} diverged"
            )
        return plain, calls

    def test_scalar_checkpoint_resumes_under_vectorized_path(
        self, tmp_path, trained_mlp, device_config, blob_dataset
    ):
        _, calls = self._checkpoint_scalar_and_resume(
            tmp_path,
            lambda: self._make_sim(trained_mlp, device_config, blob_dataset, 0.05),
        )
        # Like the golden miniature, this run never needs a sweep; the
        # reference bodies it exercises are programming and aged windows.
        assert calls["MappedLayer.program"] > 0
        assert calls["Crossbar.aged_bounds"] > 0

    def test_tuning_checkpoint_resumes_under_vectorized_path(
        self, tmp_path, overlapping_mlp, device_config, overlapping_blobs
    ):
        plain, calls = self._checkpoint_scalar_and_resume(
            tmp_path,
            lambda: self._make_sim(overlapping_mlp, device_config, overlapping_blobs, 0.3),
        )
        # Some windows (not all) tune, so snapshots land both before and
        # after sign-pulse sweeps.
        iterations = plain.iteration_trace()
        assert sum(iterations) > 0
        assert 0 in iterations
        assert not plain.failed
        assert calls["Crossbar.program_pulses"] > 0


# -- snapshot 2: the aged-window curves (pure math, Fig. 4 shape) -------------
class TestGoldenAgingCurves:
    def test_aged_window_trajectory(self, request):
        params = AgingParams.calibrated(
            r_fresh_min=1e4, r_fresh_max=1e5, pulses_to_collapse=1e5
        )
        aging = ArrheniusAging(params)
        stress = np.linspace(0.0, 0.12, 7)  # up to past full collapse
        rows = []
        for temperature in (280.0, 300.0, 330.0):
            lo, hi = aging.aged_bounds(1e4, 1e5, temperature, stress)
            rows.append(
                {
                    "temperature": temperature,
                    "aged_min": list(np.asarray(lo)),
                    "aged_max": list(np.asarray(hi)),
                    "t_collapse": aging.stress_time_to_collapse(
                        1e4, 1e5, temperature
                    ),
                }
            )
        # Pure closed-form math: essentially bit-stable everywhere.
        _compare_golden(
            request,
            "aging_curves",
            {"stress_time": list(stress), "curves": rows},
            rtol=1e-12,
            atol=1e-15,
        )


# -- snapshot 3: a sweep through the executor ---------------------------------
class TestGoldenSweep:
    def test_collapse_time_sweep(self, request):
        def collapse_metrics(exponent, rng):
            params = AgingParams.calibrated(
                r_fresh_min=1e4,
                r_fresh_max=1e5,
                pulses_to_collapse=1e5,
                time_exponent=exponent,
            )
            aging = ArrheniusAging(params)
            return {
                "t_collapse_300K": aging.stress_time_to_collapse(1e4, 1e5, 300.0),
                "deg_max_mid": aging.degradation_max(300.0, 0.05),
            }

        sweep = Sweep("time_exponent", collapse_metrics, seed=13)
        result = sweep.run([0.8, 1.0, 1.2])
        actual = {
            "parameter": result.parameter,
            "points": [
                {"value": p.value, "metrics": p.metrics} for p in result.points
            ],
        }
        _compare_golden(request, "sweep_collapse", actual, rtol=1e-12, atol=1e-15)
