"""Unit tests of the span tracer on synthetic spans (no simulation)."""

from __future__ import annotations

import json
import types

import pytest
from trace import (
    Tracer,
    percentile,
    self_times,
    summarize,
    tail_percentile,
    unattributed_frac,
)


class FakeClock:
    """Clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, dt: float) -> None:
        self.now += dt


def _nested_run(tracer: Tracer, clock: FakeClock) -> None:
    # run [0, 10]: drift [1, 2], tune [2, 8] (forward [3, 5]), gap [8, 10]
    with tracer.span("run"):
        clock.tick(1)
        with tracer.span("drift"):
            clock.tick(1)
        with tracer.span("tune"):
            clock.tick(1)
            with tracer.span("forward"):
                clock.tick(2)
            clock.tick(3)
        clock.tick(2)


def test_spans_nest_and_self_time_excludes_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    _nested_run(tracer, clock)
    by_name = {sp.name: sp for sp in tracer.spans}
    assert by_name["drift"].parent == by_name["run"].id
    assert by_name["forward"].parent == by_name["tune"].id
    selfs = self_times(tracer.spans)
    assert selfs[by_name["run"].id] == pytest.approx(3.0)
    assert selfs[by_name["tune"].id] == pytest.approx(4.0)
    assert selfs[by_name["forward"].id] == pytest.approx(2.0)
    assert sum(selfs.values()) == pytest.approx(by_name["run"].duration)


def test_unattributed_frac_is_root_self_share():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    _nested_run(tracer, clock)
    _nested_run(tracer, clock)
    assert unattributed_frac(tracer.spans, "run") == pytest.approx(0.3)
    assert unattributed_frac(tracer.spans, "absent") == 0.0


def test_span_closes_when_block_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with pytest.raises(RuntimeError):
        with tracer.span("outer"):
            clock.tick(1)
            raise RuntimeError("boom")
    with tracer.span("next"):
        clock.tick(1)
    assert tracer.spans[0].end == 1.0
    assert tracer.spans[1].parent is None


def test_patch_traces_method_class_and_module_functions_then_restores():
    class Model:
        def forward(self, x):
            return x + 1

        @classmethod
        def build(cls, n):
            return [cls() for _ in range(n)]

    module = types.SimpleNamespace(load=lambda path: f"loaded {path}")
    original_forward = Model.__dict__["forward"]
    original_build = Model.__dict__["build"]
    original_load = module.load

    with Tracer() as tracer:
        tracer.patch(Model, "forward", "nn.forward", lambda a, r: {"out": r})
        tracer.patch(Model, "build", "nn.build")
        tracer.patch(module, "load", "io.load")
        built = Model.build(2)
        assert built[0].forward(1) == 2
        assert module.load("x") == "loaded x"
    assert [sp.name for sp in tracer.spans] == ["nn.build", "nn.forward", "io.load"]
    assert tracer.spans[1].attrs == {"out": 2}
    assert Model.__dict__["forward"] is original_forward
    assert Model.__dict__["build"] is original_build
    assert module.load is original_load


def test_patch_refuses_inherited_method():
    class Base:
        def step(self):
            return 1

    class Child(Base):
        pass

    with pytest.raises(AttributeError):
        Tracer().patch(Child, "step", "x")


def test_dump_writes_one_line_per_span(tmp_path):
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    _nested_run(tracer, clock)
    path = tmp_path / "trace.jsonl"
    tracer.dump(path, workload="w", repetition=0)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 4
    assert lines[1] == {
        "id": 1,
        "name": "drift",
        "start": 1.0,
        "end": 2.0,
        "parent": 0,
        "workload": "w",
        "repetition": 0,
    }


def test_percentile_rule_needs_ten_samples_above_the_tail():
    assert tail_percentile(99) is None
    assert tail_percentile(100) == 0.9
    assert tail_percentile(999) == 0.9
    assert tail_percentile(1000) == 0.99
    assert tail_percentile(10_000) == 0.999
    values = list(range(1, 201))
    assert percentile(values, 0.5) == 100
    assert summarize(values) == {"n": 200, "p50": 100, "tail_q": 0.9, "tail": 180}
    assert summarize([5.0]) == {"n": 1, "p50": 5.0}
    assert summarize([]) == {"n": 0}
