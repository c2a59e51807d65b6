"""BENCHMARK.json against what the harness emits, and the layer metrics.

No simulation runs here: the layer metrics are derived from a synthetic
trace built with a fake clock.
"""

from __future__ import annotations

import json
import pathlib
import re

import layers
import pytest
import workloads
from test_trace import FakeClock
from trace import Tracer

REGISTRY_PATH = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"
REGISTRY = json.loads(REGISTRY_PATH.read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def names(section):
    return [m["name"] for m in REGISTRY[section]]


def test_registry_shape():
    assert REGISTRY_PATH.stat().st_size <= 64 * 1024
    assert set(REGISTRY) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert isinstance(REGISTRY["run_seconds"], int)
    assert 1 <= REGISTRY["run_seconds"] <= 60
    assert REGISTRY["paths"] == ["benchmarks/perf"]
    assert 2 <= len(REGISTRY["workloads"]) <= 8
    assert len(REGISTRY["end_to_end"]) <= 16
    assert len(REGISTRY["per_layer"]) <= 128
    for w in REGISTRY["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in REGISTRY["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in REGISTRY["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in REGISTRY["end_to_end"] + REGISTRY["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    every = names("workloads") + names("end_to_end") + names("per_layer")
    assert all(NAME.fullmatch(n) for n in every), every
    assert len(set(every)) == len(every)


def test_setup_s_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in REGISTRY["end_to_end"]}
    setup = next(m for m in REGISTRY["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert bounds["setup_s"] == max(bounds.values())


def test_emitted_names_are_declared():
    assert list(workloads.WORKLOADS) == names("workloads")
    assert list(workloads.E2E_METRICS) == names("end_to_end")
    harness = {key: 0.0 for key in layers.HARNESS_METRICS}
    assert set(layers.layer_metrics([], harness)) == set(names("per_layer"))


def _synthetic_trace():
    """One campaign point: a 2-window run with mapping, tuning and reads."""
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf(name, dt, **attrs):
        with tracer.span(name) as sp:
            clock.tick(dt)
        sp.attrs = attrs or None

    with tracer.span(layers.CAMPAIGN):
        with tracer.span(layers.POINT):
            with tracer.span(layers.RUN) as run:
                for window in range(2):
                    leaf(layers.DRIFT, 1.0)
                    with tracer.span("mapping.select_range") as sel:
                        leaf("nn.forward", 2.0)
                        clock.tick(1.0)
                    sel.attrs = {"candidates": 2}
                    with tracer.span("tuning.tune") as tune:
                        with tracer.span("network.effective_model"):
                            with tracer.span("network.hardware_matrix"):
                                with tracer.span(layers.READ):
                                    leaf(layers.READ, 0.5)
                        leaf("network.effective_model", 0.0)
                        clock.tick(1.0)
                    tune.attrs = {"iterations": 3 + window, "converged": window == 0}
                clock.tick(0.5)
            run.attrs = {"scenario": "st+t", "pulses": 40}
    return tracer.spans


def test_layer_metrics_from_synthetic_trace():
    harness = {key: 0.0 for key in layers.HARNESS_METRICS}
    harness["checkpoint.mb_written"] = 12.0
    m = layers.layer_metrics(_synthetic_trace(), harness)
    # Windows: drift to drift (1 + 3 + 1.5 = 5.5 s), then drift to run end.
    assert m["lifetime.windows"] == 2
    assert m["lifetime.window_ms.p50"] == pytest.approx(5500.0)
    assert m["lifetime.window_ms.p90"] == pytest.approx(6000.0)
    assert m["lifetime.wall_s.st_t"] == pytest.approx(11.5)
    assert m["lifetime.wall_s.tt"] == 0
    assert m["lifetime.unattributed_frac"] == pytest.approx(0.5 / 11.5)
    assert m["mapping.select_range_s"] == pytest.approx(6.0)
    assert m["mapping.select_range_self_s"] == pytest.approx(2.0)
    assert m["mapping.candidates_scored"] == 4
    assert m["mapping.ms_per_candidate"] == pytest.approx(1500.0)
    assert m["tuning.sessions"] == 2
    assert m["tuning.iterations"] == 7
    assert m["tuning.converged_frac"] == pytest.approx(0.5)
    assert m["tuning.tune_s"] == pytest.approx(2.0)
    assert m["nn.forward_s"] == pytest.approx(4.0)
    assert m["nn.forward_calls"] == 2
    assert m["nn.effective_model_reuse_frac"] == pytest.approx(0.5)
    assert m["crossbar.read_s"] == pytest.approx(1.0)
    assert m["crossbar.read_calls"] == 2
    assert m["crossbar.pulses"] == 40
    assert m["executor.point_s.p50"] == pytest.approx(11.5)
    assert m["executor.point_s.max"] == pytest.approx(11.5)
    assert m["checkpoint.mb_per_save"] == 0.0
    assert m["checkpoint.mb_written"] == 12.0
