"""Fault schedules: injecting faults *during* a lifetime run.

Real arrays ship with fabrication defects (a window-0 event) and also
develop faults in the field — devices weld shut mid-life, selector
drivers start dropping pulses, sense amplifiers get noisier.  A
:class:`FaultSchedule` is a list of :class:`FaultEvent` entries pinned
to application-window indices; the
:class:`~repro.core.lifetime.LifetimeSimulator` applies due events at
the start of each window, *before* the window's applications and the
maintenance (remap + tune) cycle, so the recovery machinery sees the
fault exactly the way a deployed controller would.

Composition with the aging model is deliberate, not incidental:

* ``stuck_at`` events pin the device resistance **and** exhaust the
  device's endurance (stress time jumps past window collapse, see
  :meth:`repro.crossbar.Crossbar.pin_stuck`), so every later
  programming/tuning call skips the device through the ordinary
  dead-device mask — a stuck device and an aged-to-death device are
  indistinguishable to the controller.
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

from repro.exceptions import ConfigurationError

_KINDS = ("stuck_at", "drift", "read_noise", "pulse_miss")


@dataclass(frozen=True)
class FaultEvent:
    """One fault-injection event, pinned to an application window.

    ``rate`` is the event's severity, read per ``kind``:

    ``stuck_at``
        fraction of all devices welded to a resistance extreme
        (one-shot), half at LRS and half at HRS.
    ``drift``
        lognormal sigma of a one-shot extra drift.
    ``read_noise``
        extra relative read-noise sigma, added persistently.
    ``pulse_miss``
        persistent programming-pulse failure probability.
    """

    kind: str
    window: int = 0
    rate: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; choose from {_KINDS}"
            )
        if self.window < 0:
            raise ConfigurationError(f"window must be >= 0, got {self.window}")
        if self.rate < 0:
            raise ConfigurationError(f"rate must be >= 0, got {self.rate}")
        if self.kind in ("stuck_at", "pulse_miss") and self.rate >= 1.0:
            raise ConfigurationError(
                f"{self.kind} rate must be < 1, got {self.rate}"
            )


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

        ``rng`` must be a dedicated stream (the simulator derives one).
        A stuck-at event draws one uniform array per tile, in tile
        order, and pins ``u < rate/2`` at LRS and ``rate/2 <= u < rate``
        at HRS; the other kinds draw nothing from it.  Returns the
        events applied, for window-record bookkeeping.
        """
        due = self.events_at(window)
        for event in due:
            if event.kind == "drift":
                network.apply_drift(event.rate)
                continue
            for layer in network.layers:
                for _rs, _cs, tile in layer.tiles.iter_tiles():
                    if event.kind == "stuck_at":
                        u = rng.random(tile.shape)
                        half = event.rate * 0.5
                        tile.pin_stuck(u < half, (u >= half) & (u < event.rate))
                    elif event.kind == "read_noise":
                        tile.read_noise_extra += event.rate
                    else:
                        tile.pulse_miss_rate = min(
                            0.999, tile.pulse_miss_rate + event.rate
                        )
        return due

    @classmethod
    def single(cls, kind: str, rate: float, window: int = 1) -> "FaultSchedule":
        """One event of ``kind`` with severity ``rate`` at ``window``."""
        return cls(events=(FaultEvent(kind, window, rate),))
