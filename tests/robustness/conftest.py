"""Fixtures for the robustness (fault campaign) tests.

The lifetime-level fixtures are deliberately miniature: the acceptance
properties under test (fault injection shortens lifetime, compensation
improves tuning success) are about *mechanisms*, which show up at any
scale; the exact workloads here were calibrated so the assertions hold
with a comfortable margin while the whole module stays fast.
"""

from __future__ import annotations

import pytest

from repro.core import AgingAwareFramework, FrameworkConfig, LifetimeConfig
from repro.data import make_blobs
from repro.device import DeviceConfig
from repro.training import SkewedTrainingConfig, TrainConfig, build_mlp, train_baseline
from repro.tuning import TuningConfig


@pytest.fixture(scope="session")
def hard_blob_model():
    """A trained MLP on a non-separable workload (thin accuracy margin).

    Returns ``(model, x_tune, y_tune, software_accuracy)``; the thin
    margin is what makes stuck-at damage visible in accuracy.
    """
    data = make_blobs(n_samples=500, n_classes=4, n_features=8, spread=2.2, seed=5)
    from repro.rng import derive_rng

    model = build_mlp(8, 4, hidden=(16,), seed=derive_rng(123, "train"))
    train_baseline(model, data, TrainConfig(epochs=20))
    x, y = data.x_train[:200], data.y_train[:200]
    return model, x, y, model.score(x, y)


def make_mini_framework(seed: int = 7, max_windows: int = 6) -> AgingAwareFramework:
    """A laptop-instant framework for campaign/lifetime tests.

    Calibrated so the tuner works: overlapping blobs (software accuracy
    about 0.89), 8 resistance levels, strong drift and a target of 99 %
    of the software accuracy make every scenario tune in most of its
    fault-free windows (``TestMiniFrameworkTunes``), so the tests built
    on it can see the tuner and dead-gradient masking.
    """
    data = make_blobs(n_samples=300, n_classes=3, n_features=6, spread=1.5, seed=3)
    config = FrameworkConfig(
        device=DeviceConfig(pulses_to_collapse=30, write_noise=0.1, n_levels=8),
        train=TrainConfig(epochs=10),
        skewed=SkewedTrainingConfig(
            beta_scale=-1.0,
            lambda1=0.05,
            lambda2=1e-3,
            pretrain=TrainConfig(epochs=10),
            skew_epochs=5,
        ),
        lifetime=LifetimeConfig(
            apps_per_window=1000,
            drift_magnitude=0.15,
            max_windows=max_windows,
            tuning=TuningConfig(max_iterations=25),
        ),
        tune_samples=120,
        target_fraction=0.99,
    )
    return AgingAwareFramework(
        lambda s: build_mlp(6, 3, hidden=(16,), seed=s), data, config, seed=seed
    )


def make_fragile_framework() -> AgingAwareFramework:
    """Calibrated so a 1% mid-life stuck-at burst ends the lifetime early.

    High endurance (aging is not the binding constraint) and a tight
    tuning budget: the fault-free run survives the full horizon while
    the faulted run fails within a few windows.
    """
    data = make_blobs(n_samples=400, n_classes=3, n_features=6, spread=0.4, seed=3)
    config = FrameworkConfig(
        device=DeviceConfig(pulses_to_collapse=200, write_noise=0.1),
        train=TrainConfig(epochs=15),
        skewed=SkewedTrainingConfig(
            beta_scale=-1.0,
            lambda1=0.05,
            lambda2=1e-3,
            pretrain=TrainConfig(epochs=15),
            skew_epochs=8,
        ),
        lifetime=LifetimeConfig(
            apps_per_window=1000,
            max_windows=8,
            tuning=TuningConfig(max_iterations=30, threshold=0.4),
        ),
        tune_samples=160,
        target_fraction=0.95,
    )
    return AgingAwareFramework(
        lambda s: build_mlp(6, 3, hidden=(24,), seed=s), data, config, seed=11
    )


@pytest.fixture(scope="module")
def mini_framework() -> AgingAwareFramework:
    return make_mini_framework()


@pytest.fixture(scope="module")
def fragile_framework() -> AgingAwareFramework:
    return make_fragile_framework()
