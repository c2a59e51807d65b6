"""Aging-aware mapping policy — paper Section IV-B and Fig. 8.

The policy:

1. The programming history of one representative device per 3×3 block
   is traced (:class:`~repro.crossbar.tracer.BlockTracer`), and each
   traced device's aged window is estimated with Eq. (6)–(7).
2. Because all devices in a column must share one linear conductance
   range, a **common** resistance range has to be chosen for the array.
   The candidate upper bounds are the traced devices' aged upper bounds,
   lying between ``R^L_aged,max`` (most-aged trace) and ``R^U_aged,max``
   (least-aged trace).
3. For every candidate, the weights are mapped into ``[R_min,
   candidate]`` and the resulting classification accuracy is *predicted*
   (map → clip/quantize against the traced window estimates → invert →
   evaluate the network on a selection batch).  The candidate with the
   highest accuracy wins.  The search is one pass per layer: each
   candidate replays only the layers from it on, and the matrix scored
   for the chosen range is kept and carried forward to the next layer
   (:meth:`~repro.mapping.network.MappedNetwork.map_network`).

The selected range may not cover every device (Fig. 8's M3 example);
the residual mismatch is what online tuning cleans up afterwards — with
far fewer iterations than the fresh-range baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from repro.exceptions import ConfigurationError


@dataclass
class RangeSelection:
    """Outcome of one common-range selection (kept for diagnostics)."""

    layer_index: int
    candidates: List[float]
    scores: List[float]
    chosen_upper: float
    chosen_lower: float

    def best_score(self) -> float:
        """Predicted accuracy of the chosen candidate."""
        return max(self.scores)


class AgingAwareMapper:
    """Iterative common-range selection over traced aged upper bounds.

    Parameters
    ----------
    max_candidates:
        The traced bounds can be numerous; at most this many uniformly
        spread (by rank) unique candidates are scored.  The paper
        iterates all of them; capping keeps selection cost bounded with
        no measurable quality loss (the candidates are dense).
    selection_batch:
        Number of validation samples used to score each candidate.
    tie_tolerance:
        Candidates scoring within this accuracy of the best are treated
        as tied, and the largest (least-stress) upper bound among them
        wins.
    min_levels:
        A candidate common range must keep at least this many quantized
        levels.  Near end-of-life some traced windows are almost
        collapsed; mapping an entire layer into one or two levels can
        *score* deceptively well against equally collapsed estimates
        while destroying the array — such candidates are excluded
        (unless nothing else remains).
    fault_aware:
        Graceful degradation for stuck-at faults: a stuck device's
        traced window collapses far below the healthy population, and
        without filtering its bound floods the candidate list with
        degenerate ranges that compress every *healthy* device into a
        few levels.  With ``fault_aware=True``, traced bounds that
        cannot even host ``min_levels`` levels (i.e. devices that are
        effectively dead/stuck) are dropped from candidate generation
        as long as healthy traces remain; the stuck devices themselves
        clamp to their pinned value at program time regardless, and the
        residual error is left to tuning.
    """

    name = "aging_aware"

    def __init__(
        self,
        max_candidates: int = 6,
        selection_batch: int = 192,
        tie_tolerance: float = 0.02,
        min_levels: int = 8,
        fault_aware: bool = False,
    ) -> None:
        if max_candidates < 1:
            raise ConfigurationError(f"max_candidates must be >= 1, got {max_candidates}")
        if selection_batch < 1:
            raise ConfigurationError(f"selection_batch must be >= 1, got {selection_batch}")
        if tie_tolerance < 0:
            raise ConfigurationError(f"tie_tolerance must be >= 0, got {tie_tolerance}")
        if min_levels < 2:
            raise ConfigurationError(f"min_levels must be >= 2, got {min_levels}")
        self.max_candidates = int(max_candidates)
        self.selection_batch = int(selection_batch)
        self.tie_tolerance = float(tie_tolerance)
        self.min_levels = int(min_levels)
        self.fault_aware = bool(fault_aware)
        #: RangeSelection records of the most recent map_network call.
        self.history: List[RangeSelection] = []

    def candidate_uppers(self, layer) -> List[float]:
        """Unique candidate common upper bounds for ``layer``.

        The traced devices' aged upper bounds are snapped **down** to
        the fresh level grid — Fig. 8 reasons in level granularity: an
        aged bound between two levels makes the level above it
        unreachable, and the usable range ends at the level below.
        Snapping also means that while no full level has been consumed
        by aging, the single candidate is ``R_max`` itself and the
        policy degenerates to fresh mapping (identical targets, no
        reprogramming churn).  Deduplicated and capped to
        ``max_candidates`` values spread across the
        ``[R^L_aged,max, R^U_aged,max]`` span.
        """
        cfg = layer.device_config
        traced = np.asarray(layer.traced_upper_bounds(), dtype=np.float64)
        if traced.size == 0:
            return [cfg.r_max]
        grid = cfg.make_level_grid()
        if self.fault_aware:
            # Stuck/dead traces have collapsed below the min_levels
            # floor; keep only healthy traces (if any survive) so the
            # candidate list reflects devices that can still be mapped.
            floor_bound = grid.r_min + (self.min_levels - 1) * grid.step
            healthy = traced[traced >= floor_bound]
            if healthy.size:
                traced = healthy
        idx = np.floor((traced - grid.r_min) / grid.step).astype(np.int64)
        floor_idx = min(self.min_levels - 1, grid.n_levels - 1)
        idx = np.clip(idx, floor_idx, grid.n_levels - 1)
        snapped = grid.r_min + idx * grid.step
        uniques = np.unique(snapped)
        if uniques.size > self.max_candidates:
            pick = np.linspace(0, uniques.size - 1, self.max_candidates).round().astype(int)
            uniques = uniques[np.unique(pick)]
        return [float(u) for u in uniques]

    def select_range(
        self, layer, score_fn: Callable[[float, float], float]
    ) -> Tuple[float, float]:
        """Choose the common ``(r_lo, r_hi)`` for ``layer``.

        ``score_fn(r_lo, r_hi)`` returns the predicted classification
        accuracy of mapping this layer into that range (supplied by
        :class:`~repro.mapping.network.MappedNetwork`, which knows the
        rest of the network).

        The lower bound stays at the nominal fresh ``R_min``: the paper
        observes the original lower bounds remain inside the aged window
        (Section IV-B).
        """
        r_lo = layer.device_config.r_min
        candidates = self.candidate_uppers(layer)
        # Guard against a degenerate window.
        candidates = [c for c in candidates if c > r_lo * 1.001] or [r_lo * 1.01]
        scores = [float(score_fn(r_lo, c)) for c in candidates]
        # Among near-tied candidates, prefer the LARGEST upper bound:
        # a wider common range maps weights to larger resistances, i.e.
        # lower programming currents and less aging.  (Early in life all
        # candidates predict the same accuracy; without this tie-break
        # the policy would needlessly compress the range.)
        best_score = max(scores)
        chosen = max(
            c for c, s in zip(candidates, scores) if s >= best_score - self.tie_tolerance
        )
        self.history.append(
            RangeSelection(layer.layer_index, candidates, scores, chosen, r_lo)
        )
        return r_lo, chosen

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AgingAwareMapper(max_candidates={self.max_candidates})"
