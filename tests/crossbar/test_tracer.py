"""Unit tests for the 1-of-9 block tracer (paper Section IV-B)."""

import numpy as np
import pytest

from repro.crossbar import BlockTracer, Crossbar
from repro.exceptions import ConfigurationError


class TestPositions:
    def test_default_3x3_blocks(self, small_crossbar):
        tracer = BlockTracer(small_crossbar, 3)
        rows, cols = tracer.traced_positions()
        np.testing.assert_array_equal(rows, [1, 4, 7])
        np.testing.assert_array_equal(cols, [1, 4, 7])
        assert tracer.trace_fraction == pytest.approx(1.0 / 9.0)

    def test_block_one_traces_everything(self, small_crossbar):
        tracer = BlockTracer(small_crossbar, 1)
        rows, cols = tracer.traced_positions()
        assert len(rows) == small_crossbar.rows
        assert len(cols) == small_crossbar.cols

    def test_partial_edge_blocks_get_representative(self, device_config):
        xb = Crossbar(10, 11, device_config, seed=1)
        tracer = BlockTracer(xb, 3)
        rows, cols = tracer.traced_positions()
        assert rows[-1] >= 7  # the 10th row belongs to a traced block
        assert cols[-1] >= 9

    @pytest.mark.parametrize(
        "shape,block,expected",
        [((1, 1), 3, ([0], [0])), ((2, 5), 5, ([1], [2]))],
    )
    def test_array_narrower_than_block_centre(self, device_config, shape, block, expected):
        """An array too small to hold a block's centre is still traced,
        by its last row/column, and that tracer covers every device."""
        xb = Crossbar(*shape, device_config, seed=1)
        tracer = BlockTracer(xb, block)
        rows, cols = tracer.traced_positions()
        assert (rows.tolist(), cols.tolist()) == expected
        xb.program(np.full(shape, device_config.r_min), only_changed=False)
        _est_lo, est_hi = tracer.estimated_bounds()
        _lo, hi = xb.aged_bounds()
        assert est_hi.shape == shape
        assert np.all(est_hi == hi[expected[0][0], expected[1][0]])

    def test_validation(self, small_crossbar):
        with pytest.raises(ConfigurationError):
            BlockTracer(small_crossbar, 0)


class TestEstimates:
    def test_fresh_estimate_is_exact(self, small_crossbar):
        tracer = BlockTracer(small_crossbar, 3)
        est_lo, est_hi = tracer.estimated_bounds()
        lo, hi = small_crossbar.aged_bounds()
        np.testing.assert_allclose(est_lo, lo)
        np.testing.assert_allclose(est_hi, hi)
        assert tracer.estimation_error() == 0.0

    def test_estimate_uses_block_representative(self, small_crossbar):
        """Age only the representative of block (0,0); its whole block
        inherits the aged estimate while other blocks stay fresh."""
        tracer = BlockTracer(small_crossbar, 3)
        directions = np.zeros(small_crossbar.shape, dtype=int)
        directions[1, 1] = -1  # the (0,0) block representative
        targets = np.full(small_crossbar.shape, small_crossbar.config.r_min)
        for _ in range(30):
            small_crossbar.program(targets, only_changed=False)
        # Reset: actually age everything equally is not what we want, so
        # rebuild a fresh crossbar and only pulse the representative.
        xb = Crossbar(9, 9, small_crossbar.config, seed=3)
        tracer = BlockTracer(xb, 3)
        d = np.zeros((9, 9), dtype=int)
        d[1, 1] = -1
        xb.program(np.full((9, 9), xb.config.r_max))
        for _ in range(30):
            xb.step_conductance(np.abs(d))
        est_lo, est_hi = tracer.estimated_bounds()
        # All 9 devices of block (0,0) share the representative's bound.
        assert np.all(est_hi[:3, :3] == est_hi[1, 1])
        _lo, true_hi = xb.aged_bounds()
        assert est_hi[1, 1] == pytest.approx(true_hi[1, 1])
        # Fresh blocks report fresh bounds.
        assert np.all(est_hi[3:, 3:] > est_hi[1, 1])

    def test_traced_upper_bounds_size(self, small_crossbar):
        tracer = BlockTracer(small_crossbar, 3)
        assert tracer.traced_upper_bounds().shape == (9,)

    def test_estimation_error_grows_with_block_size(self, device_config, rng):
        """Sparser tracing gives worse estimates once aging is
        heterogeneous (the A1 ablation's premise)."""
        xb = Crossbar(15, 15, device_config, seed=5)
        xb.program(np.full((15, 15), 5e4))
        for _ in range(25):
            directions = (rng.random((15, 15)) < 0.3).astype(int)
            xb.step_conductance(directions)
        errors = [BlockTracer(xb, b).estimation_error() for b in (1, 3, 5)]
        assert errors[0] == 0.0
        assert errors[1] <= errors[2] + 1e3  # generally increasing
        assert errors[2] > 0.0
