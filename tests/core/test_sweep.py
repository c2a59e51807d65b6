"""Unit tests for the sweep orchestrator."""

import pytest

from repro.core.sweep import Sweep
from repro.exceptions import ConfigurationError


class TestSweep:
    def test_requires_parameter_name(self):
        with pytest.raises(ConfigurationError):
            Sweep("", lambda v, rng: {})

    def test_runs_all_points(self):
        sweep = Sweep("x", lambda v, rng: {"square": v * v}, seed=1)
        result = sweep.run([1, 2, 3])
        assert result.metric("square") == [1.0, 4.0, 9.0]

    def test_per_point_rng_is_order_independent(self):
        def fn(v, rng):
            return {"draw": float(rng.integers(0, 10**9))}

        a = Sweep("x", fn, seed=5).run([1, 2, 3])
        b = Sweep("x", fn, seed=5).run([3, 1])
        draws_a = {p.value: p.metrics["draw"] for p in a.points}
        draws_b = {p.value: p.metrics["draw"] for p in b.points}
        assert draws_a[1] == draws_b[1]
        assert draws_a[3] == draws_b[3]

    def test_error_isolation(self):
        def fn(v, rng):
            if v == 2:
                raise RuntimeError("boom")
            return {"v": v}

        result = Sweep("x", fn, seed=1).run([1, 2, 3])
        assert [p.ok for p in result.points] == [True, False, True]
        assert result.metric("v") == [1.0, 3.0]
        assert "boom" in result.points[1].error

    def test_fail_fast(self):
        def fn(v, rng):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            Sweep("x", fn, seed=1).run([1], fail_fast=True)

    def test_non_dict_return_rejected(self):
        result = Sweep("x", lambda v, rng: 5, seed=1).run([1])
        assert not result.points[0].ok
