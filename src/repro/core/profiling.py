"""Lightweight perf counters and timers for the hot paths.

The hot-path shortcuts (the network's read memo, the aged-bounds
caches — see DESIGN.md §9, §11) only earn their complexity if the
savings are *observable*.  This module provides a process-local
registry of named monotonic counters and wall-clock timers with
near-zero overhead (a dict update per event), JSON export, and a
delta-capture context manager the executor uses to attribute work to
individual tasks (campaign grid points).

Design constraints:

* **Always on.**  Counters are cheap enough to leave enabled; there is
  no global "profiling mode" that would bifurcate the code paths under
  test from the code paths in production.
* **One registry per process, merged over the pool.**  Each executor
  task's own counters come back, from whichever process ran it, in
  ``TaskOutcome.perf``; the :class:`~repro.core.executor.ParallelExecutor`
  folds the deltas of pool-run tasks into the parent's registry
  (:meth:`PerfRegistry.merge`), so a fan-out reports the same counters
  as an in-process run.
* **No repro imports.**  This module is a leaf so any layer (device,
  crossbar, tuning, core) can import it without cycles.

Usage::

    from repro.core.profiling import PROFILER

    PROFILER.increment("tuning.sessions")
    with PROFILER.timer("tuning.session"):
        result = tune()
    print(PROFILER.render_text())

The CLI exposes the registry via ``--profile`` on ``run`` / ``compare``
/ ``campaign`` (print JSON to stdout, or write to a path).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List


class PerfDelta:
    """Counter/timer deltas between two registry snapshots."""

    def __init__(
        self,
        counters: Dict[str, float],
        timers: Dict[str, Dict[str, float]],
        elapsed_s: float,
    ) -> None:
        self.counters = counters
        self.timers = timers
        self.elapsed_s = elapsed_s

    def to_dict(self) -> dict:
        return {
            "elapsed_s": self.elapsed_s,
            "counters": dict(self.counters),
            "timers": {k: dict(v) for k, v in self.timers.items()},
        }


class PerfRegistry:
    """Named monotonic counters and aggregated wall-clock timers.

    Counters are plain floats (``increment``); timers aggregate call
    count and total seconds per name (``timer`` / ``add_time``).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._timers: Dict[str, List[float]] = {}  # name -> [calls, total_s]

    # -- recording ---------------------------------------------------------
    def increment(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at 0)."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def add_time(self, name: str, seconds: float) -> None:
        """Record one timed call of ``seconds`` under ``name``."""
        entry = self._timers.get(name)
        if entry is None:
            self._timers[name] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Context manager timing its body under ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    def merge(self, delta: dict) -> None:
        """Add a :meth:`PerfDelta.to_dict` recorded in another process."""
        for name, value in delta["counters"].items():
            self.increment(name, value)
        for name, entry in delta["timers"].items():
            timer = self._timers.setdefault(name, [0, 0.0])
            timer[0] += entry["calls"]
            timer[1] += entry["total_s"]

    # -- reading -----------------------------------------------------------
    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        """JSON-ready copy: ``{"counters": ..., "timers": ...}``."""
        return {
            "counters": dict(self._counters),
            "timers": {
                name: {"calls": entry[0], "total_s": entry[1]}
                for name, entry in self._timers.items()
            },
        }

    def reset(self) -> None:
        """Zero every counter and timer."""
        self._counters.clear()
        self._timers.clear()

    @contextmanager
    def capture(self) -> Iterator[PerfDelta]:
        """Capture the counter/timer deltas across the body.

        The yielded :class:`PerfDelta` is filled in when the body
        exits; until then its fields are empty.  Nesting is safe —
        each capture diffs its own before/after snapshots.
        """
        before = self.snapshot()
        start = time.perf_counter()
        delta = PerfDelta({}, {}, 0.0)
        try:
            yield delta
        finally:
            delta.elapsed_s = time.perf_counter() - start
            after = self.snapshot()
            for name, value in after["counters"].items():
                diff = value - before["counters"].get(name, 0)
                # A counter first created here counts even at 0, so a
                # merged delta recreates it.
                if diff or name not in before["counters"]:
                    delta.counters[name] = diff
            for name, entry in after["timers"].items():
                prior = before["timers"].get(name, {"calls": 0, "total_s": 0.0})
                calls = entry["calls"] - prior["calls"]
                if calls:
                    delta.timers[name] = {
                        "calls": calls,
                        "total_s": entry["total_s"] - prior["total_s"],
                    }

    # -- export ------------------------------------------------------------
    def export_json(self, path: str) -> None:
        """Write :meth:`snapshot` to ``path`` as indented JSON."""
        with open(path, "w") as handle:
            json.dump(self.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def render_text(self) -> str:
        """Aligned plain-text table of all counters and timers."""
        lines = ["perf counters", "-------------"]
        if not self._counters and not self._timers:
            lines.append("(empty)")
            return "\n".join(lines)
        width = max(
            (len(n) for n in list(self._counters) + list(self._timers)), default=0
        )
        for name in sorted(self._counters):
            value = self._counters[name]
            shown = int(value) if float(value).is_integer() else round(value, 6)
            lines.append(f"{name:<{width}}  {shown}")
        if self._timers:
            lines.append("")
            lines.append("timers")
            lines.append("------")
            for name in sorted(self._timers):
                calls, total = self._timers[name]
                lines.append(f"{name:<{width}}  {calls} calls  {total:.4f}s")
        return "\n".join(lines)


#: The process-global registry every subsystem records into.
PROFILER = PerfRegistry()
