"""Reference bodies the production hot path is diffed against.

Production runs one path: batched pulse programming, stress-versioned
aged-bounds/dead-mask caches, and the network's read memo in
``MappedNetwork.effective_model`` (DESIGN.md §9, §11).
The two context managers here swap slower reference bodies onto the
production classes for the duration of a ``with`` block, so a test can
run the same workload both ways and demand bit-identical results:

* :func:`scalar_tuner` — the paper's Eq. (5) pulse loop device by
  device, uncached aged windows, programming tile by tile through
  ``Crossbar.program``, and no read reuse;
* :func:`uncached_reads` — every aged window recomputed from scratch,
  and every hardware read rebuilt (no read reuse).

Each yields a :class:`collections.Counter` of reference-body calls keyed
``"Class.method"``, so a test can prove the oracle actually ran rather
than silently comparing the fast path with itself.  Patching is plain
``setattr`` on the classes (not the ``monkeypatch`` fixture, which does
not mix with Hypothesis ``@given``); the original attributes are put
back on exit, also when the block raises.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from typing import Callable, ContextManager, Dict, Iterator, Tuple

import numpy as np

from repro.crossbar.crossbar import Crossbar
from repro.exceptions import ConfigurationError
from repro.mapping.network import MappedLayer, MappedNetwork

__all__ = ["scalar_program_pulses", "scalar_tuner", "uncached_reads"]


# -- reference bodies ---------------------------------------------------------
def scalar_program_pulses(self, polarity, fraction=0.5):
    """``Crossbar.program_pulses`` as the per-device Eq. (5) loop.

    Same RNG draws in the same order and the same device-physics calls
    as the batched body; min/max and +-*/ are elementwise-exact, so each
    device lands on the batched result bit for bit, and unselected
    devices keep their resistance like the masked ``np.where``.
    """
    select = self._apply_pulse_misses((polarity != 0) & ~self.dead_mask())
    self._apply_stress(select, self.resistance)
    g_step = fraction * (self.config.g_max - self.config.g_min) / (self.grid.n_levels - 1)
    noise = (
        self._rng.normal(0.0, self.config.write_noise * g_step, size=self.shape)
        if self.config.write_noise > 0
        else None
    )
    lo, hi = self.aged_bounds()
    res = self.resistance
    out = res.copy()
    for i in range(self.rows):
        for j in range(self.cols):
            if not select[i, j]:
                continue
            g = 1.0 / res[i, j] + polarity[i, j] * g_step
            if noise is not None:
                g = g + noise[i, j]
            g = max(g, 1.0 / max(hi[i, j], 1.0))
            out[i, j] = min(max(1.0 / g, lo[i, j]), hi[i, j])
    self.resistance = out
    return int(np.count_nonzero(select))


def _uncached_aged_bounds(self):
    return self.aging.aged_bounds(
        self.r_fresh_min, self.r_fresh_max, self.config.temperature, self.stress_time
    )


def _uncached_dead_mask(self):
    return self.usable_level_counts() < 2


def _program_via_tiles(self):
    """``MappedLayer.program`` tile by tile through ``Crossbar.program``."""
    if self.mapping is None:
        raise ConfigurationError("set_range must be called before program")
    targets = np.asarray(self.mapping.weight_to_resistance(self.software_matrix()))
    for rs, cs, tile in self.tiles.iter_tiles():
        tile.program(targets[rs, cs])


def _unmemoized_effective_model(self):
    """``MappedNetwork.effective_model`` rebuilt from the tiles every call."""
    matrices = {m.layer_index: m.hardware_matrix() for m in self.layers}
    return self._install_matrices(matrices)


# -- installation -------------------------------------------------------------
def _counted(calls: Counter, key: str, body: Callable) -> Callable:
    @functools.wraps(body)
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return body(*args, **kwargs)

    return wrapper


@contextmanager
def _installed(bodies: Dict[Tuple[type, str], Callable]) -> Iterator[Counter]:
    # vars() rather than getattr(): the attribute must live on that very
    # class, so a method moved elsewhere fails here instead of leaving
    # the oracle uninstalled.
    saved = [(cls, name, vars(cls)[name]) for cls, name in bodies]
    calls: Counter = Counter()
    try:
        for (cls, name), body in bodies.items():
            setattr(cls, name, _counted(calls, f"{cls.__name__}.{name}", body))
        yield calls
    finally:
        for cls, name, original in saved:
            setattr(cls, name, original)


def scalar_tuner() -> ContextManager[Counter]:
    """Run the block on the scalar reference tuner (DESIGN.md §11)."""
    return _installed(
        {
            (Crossbar, "program_pulses"): scalar_program_pulses,
            (Crossbar, "aged_bounds"): _uncached_aged_bounds,
            (Crossbar, "dead_mask"): _uncached_dead_mask,
            (MappedLayer, "program"): _program_via_tiles,
            (MappedNetwork, "effective_model"): _unmemoized_effective_model,
        }
    )


def uncached_reads() -> ContextManager[Counter]:
    """Run the block with every hardware read rebuilt (DESIGN.md §9)."""
    return _installed(
        {
            (Crossbar, "aged_bounds"): _uncached_aged_bounds,
            (Crossbar, "dead_mask"): _uncached_dead_mask,
            (MappedNetwork, "effective_model"): _unmemoized_effective_model,
        }
    )
