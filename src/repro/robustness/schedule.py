"""Fault schedules: injecting faults *during* a lifetime run.

The static :mod:`repro.device.faults` model covers fabrication defects
present from day one.  Real arrays also develop faults in the field —
devices weld shut mid-life, selector drivers start dropping pulses,
sense amplifiers get noisier.  A :class:`FaultSchedule` is a list of
:class:`FaultEvent` entries pinned to application-window indices; the
:class:`~repro.core.lifetime.LifetimeSimulator` applies due events at
the start of each window, *before* the window's applications and the
maintenance (remap + tune) cycle, so the recovery machinery sees the
fault exactly the way a deployed controller would.

Composition with the aging model is deliberate, not incidental:

* ``stuck_at`` events pin the device resistance **and** exhaust the
  device's endurance (stress time jumps past window collapse, see
  :func:`repro.device.faults.inject_faults`), so every later
  programming/tuning call skips the device through the ordinary
  dead-device mask — a stuck device and an aged-to-death device are
  indistinguishable to the controller, which is what makes the
  graceful-degradation policies uniform.
* ``drift`` events add a one-shot extra lognormal conductance drift on
  top of the per-window baseline drift (recoverable by remapping, no
  stress).
* ``read_noise`` events raise the read-out noise sigma persistently
  from their window on (sensing degradation does not heal).
* ``pulse_miss`` events set the probability that a programming/tuning
  pulse silently fails to fire from their window on (the device neither
  moves nor ages on a missed pulse).

Every knob composes identically with the batched pulse path and the
per-device Eq. (5) reference in ``tests/oracles/`` (DESIGN.md §11): the
miss draw and the dead-device skip are folded into the same masked
update, so a faulted run is bit-identical across the two — the
equivalence battery drives these hooks explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.device.faults import FaultModel, inject_faults_network
from repro.exceptions import ConfigurationError

_KINDS = ("stuck_at", "drift", "read_noise", "pulse_miss")


@dataclass(frozen=True)
class FaultEvent:
    """One fault-injection event, pinned to an application window.

    Only the fields relevant to ``kind`` are read:

    ``stuck_at``
        ``rate_lrs`` / ``rate_hrs`` — fractions of all devices welded to
        their low/high resistance extreme (one-shot).
    ``drift``
        ``magnitude`` — lognormal sigma of a one-shot extra drift.
    ``read_noise``
        ``sigma`` — extra relative read-noise added persistently.
    ``pulse_miss``
        ``miss_rate`` — persistent programming-pulse failure probability.
    """

    kind: str
    window: int = 0
    rate_lrs: float = 0.0
    rate_hrs: float = 0.0
    magnitude: float = 0.0
    sigma: float = 0.0
    miss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; choose from {_KINDS}"
            )
        if self.window < 0:
            raise ConfigurationError(f"window must be >= 0, got {self.window}")
        for name in ("rate_lrs", "rate_hrs", "magnitude", "sigma"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if not 0.0 <= self.miss_rate < 1.0:
            raise ConfigurationError(
                f"miss_rate must be in [0, 1), got {self.miss_rate}"
            )

    @property
    def total_rate(self) -> float:
        """Headline severity of the event (for reports/grids)."""
        if self.kind == "stuck_at":
            return self.rate_lrs + self.rate_hrs
        if self.kind == "drift":
            return self.magnitude
        if self.kind == "read_noise":
            return self.sigma
        return self.miss_rate


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered set of fault events over a lifetime run.

    Immutable (so it fingerprints into stable journal keys); the
    application log lives in the simulator's window records, not here.
    """

    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def events_at(self, window: int) -> List[FaultEvent]:
        """Events due at the start of ``window`` (0-based)."""
        return [e for e in self.events if e.window == window]

    def apply(self, network, window: int, rng: np.random.Generator) -> List[FaultEvent]:
        """Apply all events due at ``window`` to ``network``.

        ``rng`` must be a dedicated stream (the simulator derives one);
        stuck-at sampling consumes it, the persistent knob events do
        not.  Returns the events applied, for window-record bookkeeping.
        """
        due = self.events_at(window)
        for event in due:
            if event.kind == "stuck_at":
                model = FaultModel(rate_lrs=event.rate_lrs, rate_hrs=event.rate_hrs)
                inject_faults_network(network, model, rng)
            elif event.kind == "drift":
                network.apply_drift(event.magnitude)
            elif event.kind == "read_noise":
                for tile in _iter_tiles(network):
                    tile.read_noise_extra += event.sigma
            elif event.kind == "pulse_miss":
                for tile in _iter_tiles(network):
                    tile.pulse_miss_rate = min(
                        0.999, tile.pulse_miss_rate + event.miss_rate
                    )
        return due

    # -- convenience constructors -----------------------------------------
    @classmethod
    def stuck_at_midlife(
        cls, rate: float, window: int = 1, lrs_fraction: float = 0.5
    ) -> "FaultSchedule":
        """Single stuck-at event splitting ``rate`` between LRS and HRS."""
        if not 0.0 <= lrs_fraction <= 1.0:
            raise ConfigurationError(
                f"lrs_fraction must be in [0, 1], got {lrs_fraction}"
            )
        return cls(
            events=(
                FaultEvent(
                    kind="stuck_at",
                    window=window,
                    rate_lrs=rate * lrs_fraction,
                    rate_hrs=rate * (1.0 - lrs_fraction),
                ),
            )
        )

    @classmethod
    def single(cls, kind: str, rate: float, window: int = 1) -> "FaultSchedule":
        """One event of ``kind`` with headline severity ``rate``."""
        if kind == "stuck_at":
            return cls.stuck_at_midlife(rate, window=window)
        if kind == "drift":
            return cls(events=(FaultEvent(kind="drift", window=window, magnitude=rate),))
        if kind == "read_noise":
            return cls(events=(FaultEvent(kind="read_noise", window=window, sigma=rate),))
        if kind == "pulse_miss":
            return cls(events=(FaultEvent(kind="pulse_miss", window=window, miss_rate=rate),))
        raise ConfigurationError(f"unknown fault kind {kind!r}; choose from {_KINDS}")


def _iter_tiles(network):
    """All crossbar tiles of a mapped network."""
    for layer in network.layers:
        for _rs, _cs, tile in layer.tiles.iter_tiles():
            yield tile
