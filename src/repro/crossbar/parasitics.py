"""Interconnect parasitics: IR drop along word- and bit-lines.

The ideal crossbar model assumes every cell sees the full input voltage
and every column current reaches the TIA unattenuated.  Real arrays have
finite wire resistance per cell pitch, so cells far from the drivers see
degraded voltages — the classic *IR-drop* nonideality that bounds
practical array sizes.

Two models are provided:

* :func:`solve_crossbar_nodal` — exact DC solution of the full resistive
  network (2·R·C unknown node voltages) via sparse linear solve.  The
  reference the first-order model is checked against; use for arrays
  up to ~256x256.
* :func:`ir_drop_factors` — the standard first-order approximation: the
  voltage reaching cell (i, j) is attenuated by the accumulated wire
  resistance relative to the cell's path resistance.  O(RC).

The :class:`ParasiticModel` wraps a wire resistance per segment, so
experiments can quantify how much accuracy IR drop costs at a given
array size (``benchmarks/test_ext_ir_drop.py`` attenuates a mapped
network's read conductances with :func:`ir_drop_factors`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from repro.exceptions import ConfigurationError, ShapeError


@dataclass(frozen=True)
class ParasiticModel:
    """Wire resistance per cell-to-cell segment (ohms).

    ``r_wire = 0`` reduces both models to the ideal crossbar.  Typical
    values are 1–20 Ω per segment for nanoscale metal pitches.
    """

    r_wire: float = 2.0

    def __post_init__(self) -> None:
        if self.r_wire < 0:
            raise ConfigurationError(f"r_wire must be >= 0, got {self.r_wire}")


def _assemble_nodal_matrix(g: np.ndarray, g_wire: float) -> sparse.csc_matrix:
    """Nodal matrix ``A`` of the crossbar network (the RHS is separate).

    Every cell bridges its wordline and bitline nodes through its
    conductance, wordline nodes chain towards the driver column
    (j = 0), bitline nodes chain towards the TIA row (i = rows-1), and
    the driver/TIA terminals stamp ``g_wire`` onto the diagonal.  All
    coordinates are built as whole index grids and fed to one COO
    constructor (duplicates sum on conversion).
    """
    rows, cols = g.shape
    n = 2 * rows * cols
    w_idx = np.arange(rows)[:, None] * cols + np.arange(cols)[None, :]
    b_idx = rows * cols + w_idx

    # Conductance stamps between node pairs (a, b): four COO entries
    # each — (a,a,+v), (b,b,+v), (a,b,-v), (b,a,-v).
    pair_a = [w_idx.ravel()]                 # memristor bridges the planes
    pair_b = [b_idx.ravel()]
    pair_v = [g.ravel()]
    if cols > 1:                             # wordline chain towards j = 0
        pair_a.append(w_idx[:, 1:].ravel())
        pair_b.append(w_idx[:, :-1].ravel())
        pair_v.append(np.full((cols - 1) * rows, g_wire, dtype=np.float64))
    if rows > 1:                             # bitline chain towards i = rows-1
        pair_a.append(b_idx[:-1, :].ravel())
        pair_b.append(b_idx[1:, :].ravel())
        pair_v.append(np.full((rows - 1) * cols, g_wire, dtype=np.float64))
    a = np.concatenate(pair_a)
    b = np.concatenate(pair_b)
    v = np.concatenate(pair_v)

    # Source terminals: wordline drivers at j = 0, TIA virtual grounds
    # at i = rows-1 — diagonal-only entries.
    src = np.concatenate([w_idx[:, 0], b_idx[-1, :]])
    coo_rows = np.concatenate([a, b, a, b, src])
    coo_cols = np.concatenate([a, b, b, a, src])
    coo_vals = np.concatenate([v, v, -v, -v, np.full(src.size, g_wire, dtype=np.float64)])
    return sparse.coo_matrix(
        (coo_vals, (coo_rows, coo_cols)), shape=(n, n)
    ).tocsc()


def solve_crossbar_nodal(
    conductances: np.ndarray,
    v_in: np.ndarray,
    model: ParasiticModel,
) -> np.ndarray:
    """Exact column currents of a crossbar with wire parasitics.

    Nodal analysis: each cell (i, j) connects wordline node W(i,j) to
    bitline node B(i,j) through its conductance; wordline nodes chain
    horizontally (input driven at j = 0), bitline nodes chain vertically
    (TIA virtual ground at i = rows-1).  Returns the per-column currents
    flowing into the TIAs for a single input vector ``v_in``;
    ``r_wire = 0`` is the ideal crossbar ``v_in @ g``.
    """
    g = np.asarray(conductances, dtype=np.float64)
    if g.ndim != 2:
        raise ShapeError(f"conductances must be 2-D, got shape {g.shape}")
    rows, cols = g.shape
    v_in = np.asarray(v_in, dtype=np.float64)
    if v_in.shape != (rows,):
        raise ShapeError(f"v_in must have shape ({rows},), got {v_in.shape}")
    if model.r_wire == 0.0:
        return v_in @ g
    g_wire = 1.0 / model.r_wire
    rhs = np.zeros(2 * rows * cols, dtype=np.float64)
    rhs[np.arange(rows) * cols] = g_wire * v_in
    nodes = spsolve(_assemble_nodal_matrix(g, g_wire), rhs)
    # Bitline nodes of the TIA row, times the last wire segment.
    return nodes[rows * cols + (rows - 1) * cols + np.arange(cols)] * g_wire


def ir_drop_factors(
    conductances: np.ndarray,
    model: ParasiticModel,
) -> np.ndarray:
    """First-order per-cell attenuation factors.

    Cell (i, j)'s signal path crosses ``j`` wordline segments and
    ``rows-1-i`` bitline segments; with the cell's own resistance
    ``1/g`` dominating, the delivered fraction is approximately::

        f = (1/g) / (1/g + r_wire * (j + rows-1-i + 2))

    Exact at ``r_wire = 0``; pessimistic for sparse activity (it ignores
    current sharing), optimistic for dense activity — the usual
    first-order trade.  Apply as ``(v_in @ (g * f))``.
    """
    g = np.asarray(conductances, dtype=np.float64)
    if g.ndim != 2:
        raise ShapeError(f"conductances must be 2-D, got shape {g.shape}")
    rows, cols = g.shape
    if model.r_wire == 0.0:
        return np.ones_like(g)
    j_idx = np.arange(cols)[None, :]
    i_idx = np.arange(rows)[:, None]
    segments = j_idx + (rows - 1 - i_idx) + 2
    r_cell = 1.0 / np.maximum(g, 1e-12)
    return r_cell / (r_cell + model.r_wire * segments)


def vmm_with_ir_drop(
    conductances: np.ndarray,
    v_in: np.ndarray,
    model: ParasiticModel,
) -> np.ndarray:
    """First-order VMM including IR drop, for one vector or a batch.

    Applies :func:`ir_drop_factors` once: ``v_in @ (g * f)``.
    """
    g = np.asarray(conductances, dtype=np.float64)
    v_arr = np.asarray(v_in, dtype=np.float64)
    v = np.atleast_2d(v_arr)
    if v.shape[-1] != g.shape[0]:
        raise ShapeError(f"input width {v.shape[-1]} != rows {g.shape[0]}")
    out = v @ (g * ir_drop_factors(g, model))
    return out[0] if v_arr.ndim == 1 else out
