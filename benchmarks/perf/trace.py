"""Span tracer for the perf harness: layer timings measured from outside.

The harness never edits the program to time it.  In a traced pass it
replaces selected functions and methods of ``repro.*`` with shims that
open a span around the original call, runs the workload, and restores
the originals.  Spans stay in memory and are written out once, when the
run ends.

A span is ``(id, name, start, end, parent, attrs)``; ``parent`` is the
span that was open when this one started, so spans nest like calls.  A
span's *self time* is its duration minus the durations of its direct
children (the program is single-threaded, so siblings never overlap).

Reconciliation: for a root span such as ``lifetime.run``, the share of
its wall time that no child span covers is the time the shims failed to
attribute to any layer.
"""

from __future__ import annotations

import functools
import json
import math
import pathlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Percentiles tried, highest first, by :func:`tail_percentile`.
TAIL_LADDER = (0.999, 0.99, 0.9)
#: Samples that must lie above a reported tail percentile.
TAIL_MIN_ABOVE = 10


class Span:
    """One timed call.  ``end`` is ``None`` while the call is open."""

    __slots__ = ("id", "name", "start", "end", "parent", "attrs")

    def __init__(
        self, span_id: int, name: str, start: float, parent: Optional[int]
    ) -> None:
        self.id = span_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        #: Counts the harness attaches (``None`` for most spans: a
        #: traced pass records hundreds of thousands of them).
        self.attrs: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span stack plus the patches that feed it.

    ``patch`` swaps an attribute of a module or class for a shim and
    remembers the original; ``restore`` puts every original back.  Use
    the tracer as a context manager so the program is left unpatched
    even when the workload raises.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record the enclosed block as one span (yielded, for attrs)."""
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, self.clock(), parent)
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = self.clock()

    def wrap(
        self,
        fn: Callable,
        name: str,
        annotate: Optional[Callable[[tuple, Any], Dict[str, Any]]] = None,
    ) -> Callable:
        """Shim that runs ``fn`` inside a span named ``name``.

        ``annotate(args, result)`` may return attributes to store on the
        span once the call has returned (counts the harness needs, such
        as a tuning session's iterations).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    sp.attrs = annotate(args, result)
                return result

        return traced

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        annotate: Optional[Callable[[tuple, Any], Dict[str, Any]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a traced shim.

        ``owner`` is a module (patch the name where callers look it up)
        or the class that defines the method (so instances the program
        creates itself are traced too).  Class- and static methods keep
        their descriptor type.
        """
        if isinstance(owner, type):
            if attr not in owner.__dict__:
                raise AttributeError(f"{owner.__name__} does not define {attr!r}")
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        if isinstance(original, (classmethod, staticmethod)):
            shim = type(original)(self.wrap(original.__func__, name, annotate))
        else:
            shim = self.wrap(original, name, annotate)
        setattr(owner, attr, shim)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def dump(self, path: pathlib.Path, **fields: Any) -> None:
        """Write every span as one JSON line, tagged with ``fields``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for sp in self.spans:
                record = {
                    "id": sp.id,
                    "name": sp.name,
                    "start": sp.start,
                    "end": sp.end,
                    "parent": sp.parent,
                    **fields,
                }
                if sp.attrs:
                    record["attrs"] = sp.attrs
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


# -- analysis ---------------------------------------------------------------
def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of every span: duration minus its direct children's."""
    spans = list(spans)
    covered: Dict[int, float] = defaultdict(float)
    for sp in spans:
        if sp.parent is not None:
            covered[sp.parent] += sp.duration
    return {sp.id: sp.duration - covered[sp.id] for sp in spans}


def children(spans: Iterable[Span]) -> Dict[Optional[int], List[Span]]:
    """Direct children of every span id, in start order."""
    out: Dict[Optional[int], List[Span]] = defaultdict(list)
    for sp in spans:
        out[sp.parent].append(sp)
    return out


def unattributed_frac(spans: Iterable[Span], root: str) -> float:
    """Share of ``root`` spans' wall time that no child span covers."""
    spans = list(spans)
    selfs = self_times(spans)
    roots = [sp for sp in spans if sp.name == root]
    wall = sum(sp.duration for sp in roots)
    if wall <= 0:
        return 0.0
    return sum(selfs[sp.id] for sp in roots) / wall


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of non-empty values."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> Optional[float]:
    """Highest ladder percentile with at least ten samples above it."""
    for q in TAIL_LADDER:
        if n - max(1, math.ceil(q * n)) >= TAIL_MIN_ABOVE:
            return q
    return None


def summarize(values: Iterable[float]) -> Dict[str, Any]:
    """Median plus the best-supported tail percentile, with the count.

    Returns ``{"n", "p50"}`` and, when the sample is large enough,
    ``"tail_q"``/``"tail"`` for the highest percentile in
    :data:`TAIL_LADDER` with ten or more samples above it.
    """
    values = list(values)
    out: Dict[str, Any] = {"n": len(values)}
    if not values:
        return out
    out["p50"] = percentile(values, 0.5)
    q = tail_percentile(len(values))
    if q is not None:
        out["tail_q"] = q
        out["tail"] = percentile(values, q)
    return out
