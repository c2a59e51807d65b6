"""Array-vectorized crossbar of memristors."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.profiling import PROFILER
from repro.device.config import DeviceConfig
from repro.exceptions import ConfigurationError, ShapeError
from repro.rng import SeedLike, ensure_rng


class Crossbar:
    """A ``rows x cols`` array of memristors with shared device config.

    The electrical model follows the paper's Fig. 1: input voltages are
    applied on the rows and each column ``j`` collects the current
    ``I_j = sum_i V_i * g_ij``; :meth:`read_conductances` is the ``G``
    of that product.

    Aging bookkeeping is per device: every programming pulse adds
    ``pulse_width`` seconds of stress to the touched devices, and the
    aged window of each device follows Eq. (6)–(7) of the paper.  A
    device whose window has collapsed is *dead*: it stays at its pinned
    resistance and ignores further programming (the array keeps
    operating with whatever value is stuck there — matching how a real
    array fails gradually rather than atomically).

    **State versioning (DESIGN.md §9).**  Every mutation of the
    programmed state — ``program``, ``program_targets``,
    ``program_pulses``, ``apply_drift``, ``pin_stuck``, or any
    direct assignment to :attr:`resistance` — bumps the monotonically
    increasing :attr:`state_version`.  Reads never bump it, and
    noise-free reads draw no RNG, so the network-level read memo
    (:meth:`repro.mapping.network.MappedNetwork.effective_model`) can
    key on the version without perturbing any random stream.

    A second counter tracks *stress* mutations only (pulse aging,
    ``pin_stuck``) and keys the aged-bounds/dead-mask caches (DESIGN.md
    §11): resistance moves between aging events leave the aged window —
    a pure function of the stress history — untouched, so its arrays
    are reused bit for bit.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        config: Optional[DeviceConfig] = None,
        seed: SeedLike = None,
    ) -> None:
        if rows < 1 or cols < 1:
            raise ConfigurationError(f"crossbar shape must be positive, got {rows}x{cols}")
        self.rows = int(rows)
        self.cols = int(cols)
        self.config = config if config is not None else DeviceConfig()
        self.grid = self.config.make_level_grid()
        self.aging = self.config.make_aging_model()
        self._rng = ensure_rng(seed)

        #: Monotonic counter of programmed-state mutations; keys the
        #: network's read memo (DESIGN.md §11).
        self._state_version = 0
        #: Monotonic counter of *stress* mutations (pulse aging,
        #: ``pin_stuck``); keys the aged-bounds/dead-mask caches (DESIGN.md
        #: §11).  Resistance writes do not age devices and leave these
        #: caches valid.
        self._stress_version = 0
        self._bounds_cache: Optional[Tuple[int, np.ndarray, np.ndarray]] = None
        self._dead_cache: Optional[Tuple[int, np.ndarray]] = None

        shape = (self.rows, self.cols)
        self.r_fresh_min = np.full(shape, self.config.r_min, dtype=np.float64)
        self.r_fresh_max = np.full(shape, self.config.r_max, dtype=np.float64)
        #: Per-device programming pulse counters.
        self.pulse_counts = np.zeros(shape, dtype=np.int64)
        #: Per-device accumulated stress time (s).
        self.stress_time = np.zeros(shape, dtype=np.float64)
        #: Programmed resistances; fresh devices wake up in their HRS.
        self.resistance = self.r_fresh_max.copy()
        #: Fault-injection controls (set by
        #: :class:`repro.robustness.FaultSchedule`): additional relative
        #: read-noise sigma on top of ``config.read_noise``, and the
        #: probability that a programming/tuning pulse silently fails to
        #: fire (driver fault: no state change, no stress).
        self.read_noise_extra = 0.0
        self.pulse_miss_rate = 0.0

    def __getstate__(self) -> dict:
        # The aged-bounds caches are pure functions of the arrays,
        # keyed by the stress counter that does travel: a copy rebuilds
        # them on first use instead of carrying them.
        state = self.__dict__.copy()
        state["_bounds_cache"] = None
        state["_dead_cache"] = None
        return state

    # -- state versioning --------------------------------------------------
    @property
    def resistance(self) -> np.ndarray:
        """Programmed resistance matrix.

        Assigning to this attribute (as every programming routine and
        fault hook does) bumps :attr:`state_version`; every writer
        assigns, none mutates the array in place.
        """
        return self._resistance

    @resistance.setter
    def resistance(self, value: np.ndarray) -> None:
        self._resistance = value
        # A resistance write bumps the state version but keeps the
        # aged-bounds caches: programming moves values, not stress.
        self._state_version += 1

    @property
    def state_version(self) -> int:
        """Monotonic count of programmed-state mutations."""
        return self._state_version

    def _invalidate_stress_caches(self) -> None:
        self._stress_version += 1
        self._bounds_cache = None
        self._dead_cache = None

    # -- aging state ------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    def aged_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-device ``(R_aged,min, R_aged,max)`` arrays.

        Cached per stress version (DESIGN.md §11): the bounds are a
        deterministic function of the stress history, so between aging
        events every read — dead-mask checks, quantization windows,
        tracer estimates, window bookkeeping — reuses the same
        (read-only) arrays bit for bit.
        """
        cached = self._bounds_cache
        if cached is not None and cached[0] == self._stress_version:
            PROFILER.increment("crossbar.bounds_cache_hits")
            return cached[1], cached[2]
        lo, hi = self.aging.aged_bounds(
            self.r_fresh_min, self.r_fresh_max, self.config.temperature, self.stress_time
        )
        lo.setflags(write=False)
        hi.setflags(write=False)
        self._bounds_cache = (self._stress_version, lo, hi)
        return lo, hi

    def dead_mask(self) -> np.ndarray:
        """Devices with fewer than two usable levels left (end-of-life).

        Cached per stress version alongside :meth:`aged_bounds`.
        """
        cached = self._dead_cache
        if cached is not None and cached[0] == self._stress_version:
            return cached[1]
        mask = self.usable_level_counts() < 2
        mask.setflags(write=False)
        self._dead_cache = (self._stress_version, mask)
        return mask

    def dead_fraction(self) -> float:
        """Fraction of dead devices in the array."""
        return float(np.mean(self.dead_mask()))

    def usable_level_counts(self) -> np.ndarray:
        """Per-device number of surviving quantized levels."""
        lo, hi = self.aged_bounds()
        return self.grid.usable_count(lo, hi)

    def total_pulses(self) -> int:
        """Sum of all programming pulses ever applied to the array."""
        return int(self.pulse_counts.sum())

    # -- programming -----------------------------------------------------------
    def _apply_stress(self, mask: np.ndarray, at_resistance: np.ndarray) -> None:
        """Accrue one pulse of stress on masked devices.

        The stress contribution of a pulse scales with the programming
        current through the device (``DeviceConfig.stress_factor``):
        devices sitting at large resistance age slower — the physical
        lever of the skewed training.
        """
        self.pulse_counts[mask] += 1
        factor = self.config.stress_factor(at_resistance)
        self.stress_time[mask] += self.config.pulse_width * factor[mask]
        self._invalidate_stress_caches()

    def _apply_pulse_misses(self, select: np.ndarray) -> np.ndarray:
        """Drop selected devices whose programming pulse silently fails.

        A missed pulse is a driver/selector fault: the device neither
        moves nor accrues stress.  Draws are only made when the miss
        rate is nonzero so fault-free runs consume the exact same RNG
        stream as before the fault hooks existed.
        """
        if self.pulse_miss_rate <= 0:
            return select
        fired = self._rng.random(self.shape) >= self.pulse_miss_rate
        return select & fired

    def program(
        self,
        targets: np.ndarray,
        only_changed: bool = True,
    ) -> np.ndarray:
        """Program the whole array towards ``targets`` (resistances).

        Each *selected* device receives one programming pulse (stress),
        then lands on the nearest usable fresh-grid level inside its
        aged window, plus write noise.  With ``only_changed=True``
        (default) devices already within half a level step of their
        target are skipped — they receive no pulse and keep their value,
        modelling a program-and-verify controller that does not pulse
        devices that are already correct.

        Dead devices are never pulsed and keep their pinned value.
        Returns the achieved resistance matrix.
        """
        self._program_impl(targets, only_changed)
        return self.resistance.copy()

    def _program_impl(self, targets: np.ndarray, only_changed: bool) -> np.ndarray:
        """Shared body of :meth:`program` / :meth:`program_targets`.

        Returns the boolean *select* mask of devices that actually
        received a pulse (post miss-draw) — both public entry points
        run the identical operation sequence, so the scalar and batched
        programming paths are bit-identical by construction.
        """
        targets = np.asarray(targets, dtype=np.float64)
        if targets.shape != self.shape:
            raise ShapeError(f"targets shape {targets.shape} != crossbar {self.shape}")
        if np.any(targets <= 0):
            raise ConfigurationError("target resistances must be > 0")

        alive = ~self.dead_mask()
        if only_changed:
            needs = np.abs(targets - self.resistance) > 0.5 * self.grid.step
            select = alive & needs
        else:
            select = alive
        select = self._apply_pulse_misses(select)
        # Stress scales with the current at the programmed target: the
        # pulse drives the device towards (and holds it at) the target
        # resistance, so the target sets the dissipated power.
        self._apply_stress(select, np.clip(targets, self.grid.r_min * 0.1, None))

        lo, hi = self.aged_bounds()
        achieved = self.grid.quantize(targets, lo, hi)
        if self.config.write_noise > 0:
            noise = self._rng.normal(
                0.0, self.config.write_noise * self.grid.step, size=self.shape
            )
            achieved = np.clip(achieved + noise, lo, hi)
        self.resistance = np.where(select, achieved, self.resistance)
        return select

    def program_targets(self, targets: np.ndarray, only_changed: bool = True) -> int:
        """Batched programming: :meth:`program` without the result copy.

        Same draws, same arithmetic, same state transitions as
        :meth:`program`; skips materializing the achieved-resistance
        return value that batch callers (the mapper) discard.  Returns
        the number of devices that actually received a pulse.
        """
        return int(np.count_nonzero(self._program_impl(targets, only_changed)))

    def program_pulses(self, polarity: np.ndarray, fraction: float = 0.5) -> int:
        """Apply one constant-amplitude tuning pulse per nonzero ``polarity``.

        Unlike programming (which lands on a full *resistance* level —
        the mapping granularity), a tuning pulse modulates the
        filament and moves the **conductance** by an approximately
        constant increment: ``fraction`` of the mean conductance spacing
        ``(g_max - g_min)/(n_levels - 1)``.  ``polarity`` holds
        -1/0/+1 in the *conductance* domain (+1 grows the filament); a
        zero leaves its device untouched and unstressed.  This is the
        Eq. (5) hardware primitive: polarity from the gradient sign,
        amplitude constant.  Clipped to the aged window; dead devices
        ignore pulses.  Returns the number of pulses that actually
        fired (post pulse-miss, post dead-mask).

        RNG draw order is part of the contract: one miss draw (only when
        ``pulse_miss_rate > 0``), then one write-noise draw (only when
        ``write_noise > 0``), each over the full array shape.  The whole
        array updates at once; the per-device transcription of the
        paper's Eq. (5) pulse loop that the equivalence battery diffs
        this body against lives in ``tests/oracles/`` (DESIGN.md §11).
        The arithmetic is exact elementwise IEEE ops, so the two agree
        bit for bit.
        """
        if polarity.shape != self.shape:
            raise ShapeError(f"polarity shape {polarity.shape} != crossbar {self.shape}")
        select = self._apply_pulse_misses((polarity != 0) & ~self.dead_mask())
        self._apply_stress(select, self.resistance)
        g_step = fraction * (self.config.g_max - self.config.g_min) / (self.grid.n_levels - 1)
        noise = (
            self._rng.normal(0.0, self.config.write_noise * g_step, size=self.shape)
            if self.config.write_noise > 0
            else None
        )
        lo, hi = self.aged_bounds()
        g_new = 1.0 / self.resistance + polarity * g_step
        if noise is not None:
            g_new = g_new + noise
        # Convert back to resistance; keep conductance positive first.
        g_new = np.maximum(g_new, 1.0 / np.maximum(hi, 1.0))
        stepped = np.clip(1.0 / g_new, lo, hi)
        self.resistance = np.where(select, stepped, self.resistance)
        return int(np.count_nonzero(select))

    def pin_stuck(self, stuck_lrs: np.ndarray, stuck_hrs: np.ndarray) -> None:
        """Weld the masked devices to a resistance extreme (stuck-at faults).

        ``stuck_lrs`` devices are pinned to their fresh minimum
        resistance, ``stuck_hrs`` ones to their fresh maximum (the masks
        are disjoint).  A stuck device also has its endurance exhausted:
        its stress time jumps to twice the window-collapse time, so every
        later programming/tuning call skips it through the dead-device
        mask, exactly like a device that aged to death.
        """
        collapse_time = self.aging.stress_time_to_collapse(
            float(np.min(self.r_fresh_min)),
            float(np.max(self.r_fresh_max)),
            self.config.temperature,
        )
        if not np.isfinite(collapse_time):
            raise ConfigurationError(
                "cannot pin faults: aging model never collapses (no endurance limit)"
            )
        self.resistance = np.where(
            stuck_lrs,
            self.r_fresh_min,
            np.where(stuck_hrs, self.r_fresh_max, self.resistance),
        )
        self.stress_time = np.where(
            stuck_lrs | stuck_hrs, 2.0 * collapse_time, self.stress_time
        )
        self._invalidate_stress_caches()

    def apply_drift(self, magnitude: float) -> None:
        """Conductance drift from repeated reading (paper's ref [8]).

        Unlike aging, drift is *recoverable* by reprogramming and adds
        no stress: each programmed resistance takes a lognormal
        multiplicative step of shape ``magnitude`` and is clipped back
        into the device's aged window.  The lifetime engine applies this
        after every application window, which is what forces the
        periodic remap + retune cycle.
        """
        if magnitude < 0:
            raise ConfigurationError(f"drift magnitude must be >= 0, got {magnitude}")
        if magnitude == 0:
            return
        factors = self._rng.lognormal(0.0, magnitude, size=self.shape)
        lo, hi = self.aged_bounds()
        self.resistance = np.clip(self.resistance * factors, lo, hi)

    # -- read-out ---------------------------------------------------------------
    def conductances(self) -> np.ndarray:
        """Programmed conductance matrix ``G`` (noise-free, no RNG draw)."""
        return 1.0 / self._resistance

    def read_conductances(self) -> np.ndarray:
        """Conductance matrix as seen by a read (noise included).

        Noisy reads sample fresh resistances every call (each read
        draws its own noise); injected noise (``read_noise_extra``, from
        a fault schedule) adds in sigma on top of the device config's
        intrinsic noise.  Noise-free reads are :meth:`conductances`.
        """
        sigma = self.config.read_noise + self.read_noise_extra
        if sigma <= 0:
            return self.conductances()
        noisy = self.resistance * (1.0 + self._rng.normal(0.0, sigma, size=self.shape))
        return 1.0 / np.maximum(noisy, 1e-3)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Crossbar({self.rows}x{self.cols}, pulses={self.total_pulses()}, "
            f"dead={self.dead_fraction():.1%})"
        )
