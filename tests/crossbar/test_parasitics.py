"""Unit tests for the IR-drop parasitics models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy import sparse
from scipy.sparse.linalg import spsolve

from repro.crossbar.parasitics import (
    ParasiticModel,
    _assemble_nodal_matrix,
    ir_drop_factors,
    solve_crossbar_nodal,
    vmm_with_ir_drop,
)
from repro.exceptions import ConfigurationError, ShapeError


@pytest.fixture()
def small_g(rng):
    return rng.uniform(1e-5, 1e-4, size=(6, 5))


def _assemble_nodal_system_loop(g, v_in, g_wire):
    """Per-cell loop assembly of ``A x = rhs``: the readable specification
    the vectorized production assembly is pinned against, stamp by stamp.

    Node (i, j) sits at ``i * cols + j`` on the wordline plane and at
    ``rows * cols + i * cols + j`` on the bitline plane.
    """
    rows, cols = g.shape
    n = 2 * rows * cols
    builder = sparse.lil_matrix((n, n))
    rhs = np.zeros(n, dtype=np.float64)

    def node(i, j, plane):
        return plane * rows * cols + i * cols + j

    def add_conductance(a, b, value):
        builder[a, a] += value
        builder[b, b] += value
        builder[a, b] -= value
        builder[b, a] -= value

    def add_to_source(a, value, v_src):
        builder[a, a] += value
        rhs[a] += value * v_src

    for i in range(rows):
        for j in range(cols):
            w, b = node(i, j, 0), node(i, j, 1)
            add_conductance(w, b, g[i, j])  # the memristor bridges the planes
            if j == 0:  # wordline segment towards the driver
                add_to_source(w, g_wire, v_in[i])
            else:
                add_conductance(w, node(i, j - 1, 0), g_wire)
            if i == rows - 1:  # bitline segment towards the TIA
                add_to_source(b, g_wire, 0.0)  # virtual ground
            else:
                add_conductance(b, node(i + 1, j, 1), g_wire)
    return sparse.csr_matrix(builder), rhs


class TestModel:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ParasiticModel(r_wire=-1.0)


class TestNodalSolver:
    def test_zero_wire_resistance_is_ideal(self, small_g, rng):
        v = rng.uniform(0, 1, 6)
        out = solve_crossbar_nodal(small_g, v, ParasiticModel(0.0))
        np.testing.assert_allclose(out, v @ small_g)

    def test_single_cell_divider(self):
        """One cell: the network is a plain voltage divider
        wire → cell → wire → ground; current = V / (R_cell + 2 R_wire)."""
        g = np.array([[1e-4]])
        model = ParasiticModel(100.0)
        out = solve_crossbar_nodal(g, np.array([1.0]), model)
        expected = 1.0 / (1e4 + 2 * 100.0)
        assert out[0] == pytest.approx(expected, rel=1e-9)

    def test_parasitics_reduce_current(self, small_g):
        v = np.ones(6)
        ideal = v @ small_g
        dropped = solve_crossbar_nodal(small_g, v, ParasiticModel(50.0))
        assert np.all(dropped < ideal)
        assert np.all(dropped > 0)

    def test_more_wire_resistance_more_drop(self, small_g):
        v = np.ones(6)
        mild = solve_crossbar_nodal(small_g, v, ParasiticModel(5.0))
        harsh = solve_crossbar_nodal(small_g, v, ParasiticModel(100.0))
        assert np.all(harsh < mild)

    def test_linearity_in_input(self, small_g, rng):
        """The network is linear: doubling V doubles I."""
        model = ParasiticModel(20.0)
        v = rng.uniform(0, 1, 6)
        out1 = solve_crossbar_nodal(small_g, v, model)
        out2 = solve_crossbar_nodal(small_g, 2 * v, model)
        np.testing.assert_allclose(out2, 2 * out1, rtol=1e-9)

    def test_shape_checks(self, small_g):
        with pytest.raises(ShapeError):
            solve_crossbar_nodal(small_g, np.ones(3), ParasiticModel())
        with pytest.raises(ShapeError):
            solve_crossbar_nodal(np.ones(4), np.ones(4), ParasiticModel())

    def test_assembled_matrix_is_symmetric(self, small_g):
        a = _assemble_nodal_matrix(small_g, 0.1).toarray()
        np.testing.assert_allclose(a, a.T)


class TestVectorizedAssembly:
    """The COO assembly must match the per-cell loop reference exactly."""

    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 5), (5, 1), (2, 2), (8, 6), (16, 16)]
    )
    def test_matches_loop_reference(self, shape, rng):
        g = rng.uniform(1e-5, 1e-4, size=shape)
        v_in = rng.uniform(0, 1, shape[0])
        g_wire = 1.0 / 20.0
        m_loop, _ = _assemble_nodal_system_loop(g, v_in, g_wire)
        np.testing.assert_allclose(
            _assemble_nodal_matrix(g, g_wire).toarray(),
            m_loop.toarray(),
            rtol=1e-14,
            atol=0.0,
        )

    def test_solved_currents_match_loop_path(self, small_g, rng):
        """End to end: solving the loop-assembled system gives the same
        TIA currents as the production (vectorized) solver."""
        v = rng.uniform(0, 1, small_g.shape[0])
        g_wire = 1.0 / 15.0
        currents = solve_crossbar_nodal(small_g, v, ParasiticModel(15.0))
        matrix, rhs = _assemble_nodal_system_loop(small_g, v, g_wire)
        solution = spsolve(matrix.tocsc(), rhs)
        rows, cols = small_g.shape
        bottom = solution[rows * cols + (rows - 1) * cols + np.arange(cols)]
        np.testing.assert_allclose(currents, bottom * g_wire, rtol=1e-10)


class TestApproximation:
    def test_factors_are_fractions(self, small_g):
        f = ir_drop_factors(small_g, ParasiticModel(10.0))
        assert np.all((0 < f) & (f <= 1))

    def test_far_corner_attenuates_most(self, small_g):
        """The cell far from driver AND far from TIA (row 0, last col)
        has the longest path."""
        g = np.full((6, 5), 5e-5)
        f = ir_drop_factors(g, ParasiticModel(50.0))
        assert f[0, -1] == f.min()
        assert f[-1, 0] == f.max()

    def test_zero_wire_gives_ones(self, small_g):
        np.testing.assert_array_equal(
            ir_drop_factors(small_g, ParasiticModel(0.0)), np.ones_like(small_g)
        )

    def test_approximation_tracks_exact(self, rng):
        """On a small array with modest parasitics, the first-order
        model stays within a few percent of the nodal solution."""
        g = rng.uniform(1e-5, 1e-4, size=(8, 8))
        v = rng.uniform(0.1, 1.0, 8)
        model = ParasiticModel(2.0)
        exact = solve_crossbar_nodal(g, v, model)
        approx = vmm_with_ir_drop(g, v, model)
        rel = np.abs(approx - exact) / np.abs(exact)
        assert rel.max() < 0.05


class TestApproximationConvergence:
    """Property: the first-order model converges to the exact nodal
    solution as the wire resistance vanishes (satellite of ISSUE 4)."""

    @given(seed=st.integers(0, 200), rows=st.integers(2, 7), cols=st.integers(2, 7))
    @settings(max_examples=30, deadline=None)
    def test_converges_to_exact_as_r_wire_vanishes(self, seed, rows, cols):
        gen = np.random.default_rng(seed)
        g = gen.uniform(1e-5, 1e-4, size=(rows, cols))
        v = gen.uniform(0.1, 1.0, rows)
        previous = None
        for r_wire in (1.0, 0.1, 0.01, 0.001):
            model = ParasiticModel(r_wire)
            exact = solve_crossbar_nodal(g, v, model)
            approx = vmm_with_ir_drop(g, v, model)
            err = float(np.max(np.abs(approx - exact) / np.abs(exact)))
            if previous is not None:
                assert err <= previous + 1e-12
            previous = err
        # At r_wire = 1 mΩ per segment both models are within 0.01 %.
        assert previous < 1e-4

    def test_exact_at_zero_wire_resistance(self, small_g, rng):
        v = rng.uniform(0.1, 1.0, 6)
        model = ParasiticModel(0.0)
        np.testing.assert_array_equal(
            vmm_with_ir_drop(small_g, v, model),
            solve_crossbar_nodal(small_g, v, model),
        )


class TestVmmWrapper:
    def test_batched_shape(self, small_g, rng):
        v = rng.uniform(0, 1, (4, 6))
        out = vmm_with_ir_drop(small_g, v, ParasiticModel(5.0))
        assert out.shape == (4, 5)

    def test_width_check(self, small_g):
        with pytest.raises(ShapeError):
            vmm_with_ir_drop(small_g, np.ones(4), ParasiticModel())
