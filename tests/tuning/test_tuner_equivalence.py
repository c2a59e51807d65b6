"""Equivalence battery: vectorized tuning path vs scalar reference.

The vectorized lifetime hot loop (DESIGN.md §11) — batched
``program_pulses`` sweeps, the network's read memo, cached aged
bounds — must be **bit-identical** to the scalar reference installed by
:func:`tests.oracles.scalar_tuner` and to the unmemoized reads of
:func:`tests.oracles.uncached_reads`: same conductances, same
pulse/stress bookkeeping, same RNG bit-generator states, same
:class:`TuningResult` down to the accuracy trace.

The property tests drive random configurations (network width, batch
sizes beyond the tuning-set length, amplitude-halving edges,
``pulse_miss``/stuck-at fault injections, dead-device masking, write
noise on/off, intrinsic and fault-injected read noise, under which no
read may be memoized) through all three paths and diff the complete
end state.

``HYPOTHESIS_PROFILE=smoke`` shrinks the example count for quick local
runs; the default profile runs in the tier-1 suite.
"""

from __future__ import annotations

import os
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crossbar.crossbar import Crossbar
from repro.data import make_blobs
from repro.device import DeviceConfig
from repro.mapping import MappedNetwork
from repro.mapping.network import MappedLayer
from repro.nn import Activation, Dense, Sequential
from repro.robustness import FaultSchedule
from repro.tuning import OnlineTuner, TuningConfig
from tests.oracles import scalar_tuner, uncached_reads

MAX_EXAMPLES = 5 if os.environ.get("HYPOTHESIS_PROFILE") == "smoke" else 25

_DATA = make_blobs(n_samples=96, n_classes=3, n_features=4, spread=0.8, seed=3)
_X, _Y = _DATA.x_train[:64], _DATA.y_train[:64]

_MODELS: dict = {}


def _model(hidden: int):
    """Deterministic tiny MLP, cached per width (weights are never
    mutated by mapping/tuning — only the crossbar copies are)."""
    if hidden not in _MODELS:
        _MODELS[hidden] = Sequential(
            [Dense(hidden), Activation("relu"), Dense(3)], seed=50 + hidden
        ).build((4,))
    return _MODELS[hidden]


def _snapshot(network: MappedNetwork, tuner: OnlineTuner, result) -> dict:
    """The complete observable end state of a tuning session."""
    tiles = []
    for layer in network.layers:
        for _rs, _cs, tile in layer.tiles.iter_tiles():
            tiles.append(
                {
                    "resistance": tile.resistance.copy(),
                    "stress_time": tile.stress_time.copy(),
                    "pulse_counts": tile.pulse_counts.copy(),
                    "rng_state": tile._rng.bit_generator.state,
                }
            )
    return {
        "tiles": tiles,
        "tuner_rng_state": tuner._rng.bit_generator.state,
        "result": {
            "converged": result.converged,
            "iterations": result.iterations,
            "final_accuracy": result.final_accuracy,
            "initial_accuracy": result.initial_accuracy,
            "pulses_applied": result.pulses_applied,
            "accuracy_trace": list(result.accuracy_trace),
        },
        "total_pulses": network.total_pulses(),
        "state_version": sum(
            layer.tiles.state_version for layer in network.layers
        ),
    }


def _assert_snapshots_equal(a: dict, b: dict) -> None:
    assert a["result"] == b["result"]
    assert a["tuner_rng_state"] == b["tuner_rng_state"]
    assert a["total_pulses"] == b["total_pulses"]
    assert a["state_version"] == b["state_version"]
    assert len(a["tiles"]) == len(b["tiles"])
    for ta, tb in zip(a["tiles"], b["tiles"]):
        assert np.array_equal(ta["resistance"], tb["resistance"])
        assert np.array_equal(ta["stress_time"], tb["stress_time"])
        assert np.array_equal(ta["pulse_counts"], tb["pulse_counts"])
        assert ta["rng_state"] == tb["rng_state"]


_PATHS = {
    "production": nullcontext,
    "scalar": scalar_tuner,
    "uncached": uncached_reads,
}


def _run_session(path: str, params: dict) -> dict:
    """One full map → degrade → tune session under one path."""
    with _PATHS[path]() as calls:
        device = DeviceConfig(
            n_levels=6,
            pulses_to_collapse=60,
            write_noise=params["write_noise"],
            read_noise=params.get("read_noise", 0.0),
        )
        network = MappedNetwork(
            _model(params["hidden"]),
            device,
            seed=params["seed"],
            tile_rows=4,
            tile_cols=4,
        )
        network.map_network()
        network.apply_drift(0.4)
        if params["stuck_rate"] > 0:
            FaultSchedule.single("stuck_at", params["stuck_rate"], window=0).apply(
                network, 0, np.random.default_rng(params["seed"] + 1)
            )
        for layer in network.layers:
            for _rs, _cs, tile in layer.tiles.iter_tiles():
                tile.pulse_miss_rate = params["miss_rate"]
                tile.read_noise_extra = params.get("noise_extra", 0.0)
        tuner = OnlineTuner(
            TuningConfig(
                target_accuracy=0.999,
                max_iterations=6,
                batch_size=params["batch_size"],
                threshold=params["threshold"],
                decay_after=params["decay_after"],
                min_step_fraction=0.05,
                eval_every=params["eval_every"],
                mask_dead_devices=params["mask_dead"],
            ),
            seed=params["seed"] + 2,
        )
        result = tuner.tune(network, _X, _Y)
    # An oracle session that never ran the reference bodies would
    # compare the fast path with itself.
    if path == "scalar":
        assert calls["MappedLayer.program"] > 0
        if result.iterations:
            assert calls["Crossbar.program_pulses"] > 0
    if path != "production":
        assert calls["MappedNetwork.effective_model"] > 0
    return _snapshot(network, tuner, result)


def _assert_paths_agree(params: dict) -> None:
    """Production ends in the same state as both oracles."""
    production = _run_session("production", params)
    for oracle in ("scalar", "uncached"):
        _assert_snapshots_equal(production, _run_session(oracle, params))


class TestPathEquivalence:
    """Production and both oracle paths end in bit-identical states."""

    @given(
        hidden=st.sampled_from([6, 10]),
        batch_size=st.sampled_from([4, 16, 300]),
        threshold=st.sampled_from([0.0, 0.05, 0.3]),
        decay_after=st.sampled_from([0, 1]),
        eval_every=st.sampled_from([1, 3]),
        write_noise=st.sampled_from([0.0, 0.1]),
        read_noise=st.sampled_from([0.0, 0.05]),
        mask_dead=st.booleans(),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_clean_array_equivalence(
        self, hidden, batch_size, threshold, decay_after, eval_every,
        write_noise, read_noise, mask_dead, seed,
    ):
        params = dict(
            hidden=hidden,
            batch_size=batch_size,
            threshold=threshold,
            decay_after=decay_after,
            eval_every=eval_every,
            write_noise=write_noise,
            read_noise=read_noise,
            mask_dead=mask_dead,
            seed=seed,
            stuck_rate=0.0,
            miss_rate=0.0,
        )
        _assert_paths_agree(params)

    @given(
        miss_rate=st.sampled_from([0.0, 0.3]),
        stuck_rate=st.sampled_from([0.0, 0.1]),
        noise_extra=st.sampled_from([0.0, 0.03]),
        write_noise=st.sampled_from([0.0, 0.1]),
        mask_dead=st.booleans(),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_faulted_array_equivalence(
        self, miss_rate, stuck_rate, noise_extra, write_noise, mask_dead, seed
    ):
        """Pulse-miss and stuck-at hooks fold into the same masked
        update on every path: RNG draws and skip decisions line up.  A
        fault schedule's extra read noise makes every read draw, so
        none may be memoized."""
        params = dict(
            hidden=6,
            batch_size=16,
            threshold=0.05,
            decay_after=2,
            eval_every=1,
            write_noise=write_noise,
            mask_dead=mask_dead,
            seed=seed,
            stuck_rate=stuck_rate,
            miss_rate=miss_rate,
            noise_extra=noise_extra,
        )
        _assert_paths_agree(params)

    def test_amplitude_halving_edge(self):
        """decay_after=1 halves the amplitude on every stale eval all
        the way to the min_step_fraction floor on both paths."""
        params = dict(
            hidden=6,
            batch_size=8,
            threshold=0.0,
            decay_after=1,
            eval_every=1,
            write_noise=0.0,
            mask_dead=False,
            seed=99,
            stuck_rate=0.0,
            miss_rate=0.0,
        )
        _assert_paths_agree(params)

    def test_batch_larger_than_tuning_set(self):
        """batch_size > len(x_tune) clamps to the set length; the
        rng.choice draw shape must match on both paths."""
        params = dict(
            hidden=6,
            batch_size=300,
            threshold=0.05,
            decay_after=0,
            eval_every=2,
            write_noise=0.1,
            mask_dead=True,
            seed=7,
            stuck_rate=0.0,
            miss_rate=0.0,
        )
        _assert_paths_agree(params)


class TestOracleInstallation:
    """The oracles swap reference bodies in and always put the
    production bodies back, even when the block raises."""

    @staticmethod
    def _class_attrs() -> list:
        return [
            dict(vars(cls))
            for cls in (Crossbar, MappedLayer, MappedNetwork)
        ]

    @pytest.mark.parametrize("oracle", [scalar_tuner, uncached_reads])
    def test_originals_restored_after_exit_and_exception(self, oracle):
        before = self._class_attrs()
        with oracle():
            assert self._class_attrs() != before
        assert self._class_attrs() == before
        with pytest.raises(RuntimeError, match="boom"):
            with oracle():
                raise RuntimeError("boom")
        assert self._class_attrs() == before
