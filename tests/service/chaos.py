"""Seeded fault injection for the campaign-service tests (the chaos harness).

The service's failure-containment guarantees — poison-work quarantine,
corruption recovery, retrying HTTP clients, clock-skew tolerance — are
only worth having if something exercises them.  :func:`arm` installs
the four failure modes with ``monkeypatch``, each at the layer the real
failure would hit, and undoes them when the test ends:

``crash-point``
    ``ServiceWorker._run_point`` raises :class:`ChaosError` for doomed
    points.  Selection is a pure function of ``(seed, point key)``, so
    a doomed point crashes on **every** attempt, on every worker — the
    deterministic poison-work case the lease board's quarantine exists
    for.

``corrupt-write``
    ``leases.json`` / ``state.json`` are garbled right after a save
    (truncation or mid-file byte stomp, alternating) — the torn-write
    and bit-rot case the guarded checksums and journal-rebuild recovery
    exist for.

``drop-response``
    ``ServiceClient._attempt`` raises the real retryable
    :class:`~repro.exceptions.ServiceUnavailableError` per
    ``(route, attempt)``, so a dropped response is transient: the retry
    schedule eventually gets through.

``clock-skew``
    Each worker reads its lease boards through the ``clock`` seam of
    ``JobStore.leases`` with wall time shifted by a deterministic
    per-identity offset, so every lease deadline it writes or checks is
    skewed together — a host with a drifted clock.

Every decision derives from SHA-256 over ``(seed, site, token)`` — no
global RNG state, no ordering sensitivity — so a chaos run is
reproducible from its seed alone.
"""

from __future__ import annotations

import hashlib
import pathlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

from repro.exceptions import ConfigurationError, ServiceUnavailableError
from repro.service import JobStore, LeaseBoard, ServiceClient, ServiceWorker

#: Every failure mode the harness can inject.
CHAOS_MODES = ("crash-point", "corrupt-write", "drop-response", "clock-skew")

#: Files corrupt-write is allowed to touch.  The journal is expressly
#: NOT on this list: it is the single source of truth the service
#: rebuilds everything else from (its own torn-tail tolerance is
#: exercised separately by tests/core/test_checkpoint.py).
_CORRUPTIBLE = ("leases.json", "state.json")


class ChaosError(RuntimeError):
    """An injected point crash.

    Deliberately *not* one of the library's error types: recovery paths
    must treat it like any other unexpected exception.
    """


@dataclass(frozen=True)
class ChaosConfig:
    """Which failure modes are armed, and how hard they bite."""

    modes: Tuple[str, ...] = ()
    seed: int = 0
    #: Fraction of grid points that deterministically crash.
    crash_rate: float = 0.5
    #: Probability that one guarded-file save is garbled afterwards.
    corrupt_rate: float = 0.25
    #: Probability that one HTTP attempt loses its response.
    drop_rate: float = 0.5
    #: Clock-skew magnitude (seconds); per-identity offset in [-s, +s].
    skew_s: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "modes", tuple(self.modes))
        unknown = set(self.modes) - set(CHAOS_MODES)
        if unknown:
            raise ConfigurationError(
                f"unknown chaos mode(s) {sorted(unknown)}; "
                f"choose from {list(CHAOS_MODES)}"
            )
        for name in ("crash_rate", "corrupt_rate", "drop_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        if self.skew_s < 0:
            raise ConfigurationError(f"skew_s must be >= 0, got {self.skew_s}")


@dataclass
class ChaosController:
    """The seeded decisions of one :class:`ChaosConfig`.

    Stateless apart from bookkeeping: ``injected`` counts firings per
    mode (tests assert the harness actually did something), and a
    per-file save counter sequences corrupt-write decisions.
    """

    config: ChaosConfig = field(default_factory=ChaosConfig)
    injected: Dict[str, int] = field(default_factory=dict)
    _save_seq: Dict[str, int] = field(default_factory=dict)

    def active(self, mode: str) -> bool:
        return mode in self.config.modes

    def _unit(self, site: str, token: str) -> float:
        """Deterministic uniform [0, 1) from (seed, site, token)."""
        blob = f"{self.config.seed}/{site}/{token}".encode("utf-8")
        return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") / 2.0**64

    def _fired(self, mode: str) -> None:
        self.injected[mode] = self.injected.get(mode, 0) + 1

    # -- crash-point -------------------------------------------------------
    def point_is_doomed(self, key: str) -> bool:
        """True when this grid point crashes (same answer every attempt)."""
        return (
            self.active("crash-point")
            and self._unit("crash-point", key) < self.config.crash_rate
        )

    def crash_point(self, key: str) -> None:
        """Raise for doomed points."""
        if self.point_is_doomed(key):
            self._fired("crash-point")
            raise ChaosError(f"chaos: injected crash for point {key[:16]}…")

    # -- corrupt-write -----------------------------------------------------
    def corrupt_file(self, path) -> bool:
        """Maybe garble a just-saved coordination file; True if it did.

        Alternates between truncation (a torn write) and stomping bytes
        mid-file (bit rot that still has the right length) so both
        parse-failure and checksum-failure detection paths get traffic.
        """
        path = pathlib.Path(path)
        if not self.active("corrupt-write") or path.name not in _CORRUPTIBLE:
            return False
        seq = self._save_seq.get(path.name, 0)
        self._save_seq[path.name] = seq + 1
        roll = self._unit("corrupt-write", f"{path.name}/{seq}")
        if roll >= self.config.corrupt_rate:
            return False
        try:
            raw = path.read_bytes()
        except OSError:
            return False
        if len(raw) < 8:
            return False
        if self._unit("corrupt-style", f"{path.name}/{seq}") < 0.5:
            path.write_bytes(raw[: len(raw) // 2])  # torn write
        else:
            mid = len(raw) // 2
            path.write_bytes(raw[:mid] + b"\x00CHAOS\x00" + raw[mid + 7 :])
        self._fired("corrupt-write")
        return True

    # -- drop-response -----------------------------------------------------
    def drop_response(self, route: str, attempt: int) -> None:
        """Raise per (route, attempt): transient, retries get through."""
        if (
            self.active("drop-response")
            and self._unit("drop-response", f"{route}/{attempt}")
            < self.config.drop_rate
        ):
            self._fired("drop-response")
            raise ServiceUnavailableError(f"chaos: dropped HTTP response for {route}")

    # -- clock-skew --------------------------------------------------------
    def skew_for(self, identity: str) -> float:
        """Deterministic offset in [-skew_s, +skew_s] for one identity."""
        if not self.active("clock-skew") or self.config.skew_s == 0.0:
            return 0.0
        return (2.0 * self._unit("clock-skew", identity) - 1.0) * self.config.skew_s

    def skewed_clock(self, identity: str) -> Callable[[], float]:
        """A wall clock shifted by this identity's skew (0 when inactive)."""
        offset = self.skew_for(identity)
        if offset == 0.0:
            return time.time
        self._fired("clock-skew")
        return lambda: time.time() + offset


class _SkewedStore:
    """One worker's view of a shared :class:`JobStore`.

    Lease boards the worker opens read its skewed clock; everything
    else, including the store's own status and finalization reads,
    goes to the shared store unchanged.
    """

    def __init__(self, store: JobStore, clock: Callable[[], float]) -> None:
        self._store = store
        self._clock = clock

    def leases(self, job_id: str) -> LeaseBoard:
        return self._store.leases(job_id, clock=self._clock)

    def __getattr__(self, name: str):
        return getattr(self._store, name)


def arm(monkeypatch, config: ChaosConfig) -> ChaosController:
    """Install ``config``'s modes for the rest of the test; returns the
    controller whose ``injected`` tally the test can assert on."""
    ctrl = ChaosController(config)

    if ctrl.active("crash-point"):
        run_point = ServiceWorker._run_point

        def crashing_run_point(self, framework, spec, point, key):
            ctrl.crash_point(key)
            return run_point(self, framework, spec, point, key)

        monkeypatch.setattr(ServiceWorker, "_run_point", crashing_run_point)

    if ctrl.active("corrupt-write"):
        save = LeaseBoard._save
        write_state = JobStore._write_state

        def corrupting_save(self, table):
            save(self, table)
            ctrl.corrupt_file(self.path)

        def corrupting_write_state(self, job_id, status, **extra):
            write_state(self, job_id, status, **extra)
            ctrl.corrupt_file(self._state_path(job_id))

        monkeypatch.setattr(LeaseBoard, "_save", corrupting_save)
        monkeypatch.setattr(JobStore, "_write_state", corrupting_write_state)

    if ctrl.active("drop-response"):
        attempt_once = ServiceClient._attempt

        def dropping_attempt(self, method, path, payload, route, attempt):
            ctrl.drop_response(route, attempt)
            return attempt_once(self, method, path, payload, route, attempt)

        monkeypatch.setattr(ServiceClient, "_attempt", dropping_attempt)

    if ctrl.active("clock-skew"):
        init = ServiceWorker.__init__

        def skewed_init(self, store, *args, **kwargs):
            init(self, store, *args, **kwargs)
            self.store = _SkewedStore(store, ctrl.skewed_clock(self.worker_id))

        monkeypatch.setattr(ServiceWorker, "__init__", skewed_init)

    return ctrl
