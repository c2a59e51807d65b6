"""Durable checkpoint/resume for lifetime runs and campaign grids.

The paper's lifetime experiments are long-horizon: thousands of tuning
epochs per scenario, multiplied by the fault-campaign grid.  A killed
worker or a CI timeout must not throw away completed windows, so this
module provides two complementary durability primitives:

* **Snapshots** — a versioned, atomic, content-hashed file capturing one
  :class:`~repro.core.lifetime.LifetimeSimulator` mid-run: the pickled
  simulator (every crossbar tile's arrays, ``state_version`` and fault
  knobs, the tuner's, tiles' and fault stream's RNG states) beside the
  partial :class:`~repro.core.results.LifetimeResult`.  Resuming from a
  snapshot continues **bit-identically** to an uninterrupted run: every
  random stream picks up exactly where it stopped
  (``tests/integration/test_checkpoint_resume.py``).

* **Journals** — an append-only JSONL record of completed tasks (scenario
  runs, comparisons, campaign grid points) run through the
  :class:`~repro.core.executor.ParallelExecutor`: the one result store.
  A re-launched run skips journaled tasks outright.  The journal is
  corrupt-tail tolerant: a crash mid-append leaves a truncated last
  line, which is dropped (with a warning) instead of poisoning the run.

Snapshot files are written write-to-temp + fsync + rename
(:func:`repro.io.save_text_atomic`), so a crash
can leave the previous checkpoint or the complete new one — never a
torn file that parses.  Every snapshot embeds a SHA-256 of its payload's
canonical (sorted-key, compact) JSON, and the file holds the payload in
exactly that encoding; bit rot is detected at load time, not silently
resumed from.

Schema layout (``CHECKPOINT_SCHEMA = 6``)::

    {"schema": 6, "kind": "repro-lifetime-checkpoint", "sha256": ...,
     "payload": {
        "meta":     {scenario_key, next_window, applications, created_unix,
                     layers, tiles, devices},
        "result":   <partial LifetimeResult.to_dict()>,
        "context_pickle": <base64 cloudpickle of the simulator>}}

The pickled context is the state: restoring a snapshot is unpickling
it.  Only state is pickled (layers and crossbars drop their derived
caches in ``__getstate__``), and ``meta`` carries the counts that
``repro checkpoints inspect`` shows without unpickling anything.
Schemas 2 to 6 share this layout; only the pickled classes differ.
Schema 3 added the ``version`` counter that keys the network's read
memo to pickled ``MappedLayer``s.  Schema 4 dropped their row
permutation and the simulator's maintenance hooks, so a schema-3
snapshot taken with a permutation would resume with the wrong reads.
Schema 5 dropped the crossbars' unused transimpedance gain and the
simulator's aging-aware flag (a mapper now means AT).  Schema 6
changed the pickled fault schedule: a ``FaultEvent`` is
``(kind, window, rate)``.
Any schema but the current one is rejected at load.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import os
import pathlib
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import cloudpickle as _serializer  # ships closures (network builders)

from repro.core.results import LifetimeResult
from repro.exceptions import CheckpointError, ConfigurationError
from repro.io import load_json, save_text_atomic

logger = logging.getLogger(__name__)

#: Snapshot format version; bump when the payload layout or the state
#: of a pickled class changes.
CHECKPOINT_SCHEMA = 6
#: Journal line format version.
JOURNAL_SCHEMA = 1

_CHECKPOINT_KIND = "repro-lifetime-checkpoint"
#: Snapshot filename suffix recognized by ls/gc.
CHECKPOINT_SUFFIX = ".ckpt.json"


# -- simulator state capture ---------------------------------------------------
def capture_simulator(
    simulator,
    result: LifetimeResult,
    next_window: int,
    applications: int,
) -> dict:
    """Snapshot payload of a mid-run lifetime simulator.

    Must be called at a window boundary (after a window's record has
    been appended to ``result``); ``next_window`` is the first window
    the resumed run will execute.  Capturing draws no randomness and
    mutates nothing, so a checkpointing run is bit-identical to a
    non-checkpointing one.
    """
    layers = simulator.network.layers
    tiles = [tile for mapped in layers for _, _, tile in mapped.tiles.iter_tiles()]
    return {
        "meta": {
            "scenario_key": result.scenario_key,
            "next_window": int(next_window),
            "applications": int(applications),
            "created_unix": time.time(),
            "layers": len(layers),
            "tiles": len(tiles),
            "devices": sum(tile.rows * tile.cols for tile in tiles),
        },
        "result": result.to_dict(),
        "context_pickle": base64.b64encode(
            _serializer.dumps(simulator)
        ).decode("ascii"),
    }


def restore_simulator(payload: dict):
    """Rebuild a simulator from a snapshot payload by unpickling it.

    Returns ``(simulator, partial_result, next_window, applications)``.
    Raises :class:`~repro.exceptions.CheckpointError` when the context
    pickle does not load in this build (e.g. it references a class that
    has since been removed).
    """
    try:
        simulator = _serializer.loads(base64.b64decode(payload["context_pickle"]))
    except Exception as exc:
        raise CheckpointError(
            "the snapshot's pickled context is incompatible with this build "
            f"({type(exc).__name__}: {exc}); rerun from the start instead"
        ) from exc
    meta = payload["meta"]
    result = LifetimeResult.from_dict(payload["result"])
    return simulator, result, int(meta["next_window"]), int(meta["applications"])


# -- snapshot files -----------------------------------------------------------
def _canonical_json(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _payload_digest(payload: dict) -> str:
    return hashlib.sha256(_canonical_json(payload).encode("utf-8")).hexdigest()


def save_checkpoint(payload: dict, path) -> pathlib.Path:
    """Write a snapshot payload durably (temp + fsync + rename).

    The payload is encoded once: the canonical text that is hashed is
    the text written, inside a document laid out as ``json.dumps(...,
    sort_keys=True)`` would lay it out.
    """
    path = pathlib.Path(path)
    text = _canonical_json(payload)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    document = (
        f'{{"kind": {json.dumps(_CHECKPOINT_KIND)}, "payload": {text}, '
        f'"schema": {CHECKPOINT_SCHEMA}, "sha256": "{digest}"}}'
    )
    save_text_atomic(document, path)
    return path


def load_checkpoint(path) -> dict:
    """Read and verify a snapshot; returns the payload.

    Raises :class:`~repro.exceptions.CheckpointError` on a missing file,
    unknown schema/kind, or a content-hash mismatch (bit rot / torn
    write that somehow still parses).
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise CheckpointError(f"no checkpoint at {path}")
    try:
        document = load_json(path)
    except Exception as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(document, dict) or document.get("kind") != _CHECKPOINT_KIND:
        raise CheckpointError(f"{path} is not a lifetime checkpoint")
    if document.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"unknown checkpoint schema {document.get('schema')!r} in {path} "
            f"(this build reads schema {CHECKPOINT_SCHEMA})"
        )
    payload = document.get("payload")
    if _payload_digest(payload) != document.get("sha256"):
        raise CheckpointError(
            f"content hash mismatch in {path}: the file is corrupt"
        )
    return payload


def inspect_checkpoint(path) -> dict:
    """Verified summary of a snapshot, without unpickling the context.

    ``context_bytes`` is the size of the decoded context pickle.
    """
    payload = load_checkpoint(path)
    meta = payload["meta"]
    result = payload["result"]
    return {
        "path": str(path),
        "schema": CHECKPOINT_SCHEMA,
        "scenario_key": meta["scenario_key"],
        "next_window": int(meta["next_window"]),
        "applications": int(meta["applications"]),
        "created_unix": float(meta["created_unix"]),
        "windows_recorded": len(result.get("windows", [])),
        "failed": bool(result.get("failed", False)),
        "layers": int(meta["layers"]),
        "tiles": int(meta["tiles"]),
        "devices": int(meta["devices"]),
        "bytes": pathlib.Path(path).stat().st_size,
        "context_bytes": len(base64.b64decode(payload["context_pickle"])),
    }


# -- checkpoint directory management ------------------------------------------
def split_snapshot_name(path) -> Tuple[str, Optional[int]]:
    """``(run_id, window)`` of a ``<run-id>-wNNNNN.ckpt.json`` path.

    ``window`` is ``None`` for a name off that pattern; ``run_id`` is
    then the file name without the snapshot suffix.
    """
    name = pathlib.Path(path).name
    if name.endswith(CHECKPOINT_SUFFIX):
        name = name[: -len(CHECKPOINT_SUFFIX)]
    run_id, sep, tail = name.rpartition("-w")
    if not sep or not tail.isdigit():
        return name, None
    return run_id, int(tail)


@dataclass(frozen=True)
class CheckpointInfo:
    """One snapshot file as seen by ls/gc (no payload verification)."""

    path: pathlib.Path
    run_id: str
    window: int
    bytes: int
    modified_unix: float


def _sanitize_run_id(run_id: str) -> str:
    safe = "".join(c if (c.isalnum() or c in "+-_.") else "_" for c in run_id)
    return safe or "run"


class CheckpointManager:
    """Names, writes, lists and garbage-collects snapshots in one directory.

    Files are ``<run-id>-w<window>.ckpt.json``; the run id defaults to
    the scenario key.  Retention is explicit (:meth:`gc` keeps the
    newest ``keep`` snapshots per run) rather than automatic, so a
    resumed run never deletes the snapshot it just came from.
    """

    def __init__(self, root) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, run_id: str, window: int) -> pathlib.Path:
        return self.root / f"{_sanitize_run_id(run_id)}-w{window:05d}{CHECKPOINT_SUFFIX}"

    def save(self, payload: dict, run_id: str, window: int) -> pathlib.Path:
        return save_checkpoint(payload, self.path_for(run_id, window))

    def entries(self) -> List[CheckpointInfo]:
        """All snapshots in the directory, oldest window first per run."""
        out: List[CheckpointInfo] = []
        for path in self.root.glob(f"*{CHECKPOINT_SUFFIX}"):
            run_id, window = split_snapshot_name(path)
            if window is None:
                continue
            stat = path.stat()
            out.append(
                CheckpointInfo(
                    path=path,
                    run_id=run_id,
                    window=window,
                    bytes=stat.st_size,
                    modified_unix=stat.st_mtime,
                )
            )
        return sorted(out, key=lambda e: (e.run_id, e.window))

    def latest(self, run_id: Optional[str] = None) -> Optional[pathlib.Path]:
        """Most advanced snapshot (optionally restricted to one run)."""
        candidates = [
            e
            for e in self.entries()
            if run_id is None or e.run_id == _sanitize_run_id(run_id)
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda e: e.window).path

    def gc(self, keep: int = 3, run_id: Optional[str] = None) -> List[pathlib.Path]:
        """Delete all but the newest ``keep`` snapshots per run id.

        Returns the deleted paths.  ``keep=0`` removes everything
        (matching runs only, when ``run_id`` is given).
        """
        if keep < 0:
            raise ConfigurationError(f"keep must be >= 0, got {keep}")
        grouped: Dict[str, List[CheckpointInfo]] = {}
        for entry in self.entries():
            if run_id is not None and entry.run_id != _sanitize_run_id(run_id):
                continue
            grouped.setdefault(entry.run_id, []).append(entry)
        removed: List[pathlib.Path] = []
        for entries in grouped.values():
            for entry in entries[: max(0, len(entries) - keep)]:
                entry.path.unlink(missing_ok=True)
                removed.append(entry.path)
        return removed


# -- run journal --------------------------------------------------------------
class RunJournal:
    """Append-only JSONL record of completed tasks: the one result store.

    One line per completed task: ``{"schema": 1, "key": <content
    hash>, "sha256": <line digest>, "payload": <encoded result>}``.
    Keys are content-hash fingerprints of everything a task depends on
    (a scenario run's is built by
    :meth:`~repro.core.framework.AgingAwareFramework.scenario_task`), so
    a config change re-executes tasks instead of replaying stale ones.
    Every grid of lifetime runs (``compare``, ``run_scenario_repeats``,
    a fault campaign, ``repro run``) reads and writes it through
    :meth:`~repro.core.framework.AgingAwareFramework.run_tasks`.
    Opening an existing journal always resumes it; to start over, use a
    new path.

    Loading tolerates a corrupt tail: a crash mid-append leaves a
    truncated or garbled final line, which is dropped with a warning
    (``dropped_lines`` counts them) — every intact line before it is
    still honored.  Appends are flushed and fsync'd line-by-line, so a
    completed point survives any later crash.

    Several writers may share one journal: two
    :class:`~repro.core.executor.ParallelExecutor` instances, or two
    ``repro campaign --journal`` processes draining the same grid.
    :meth:`record` serializes writers through an advisory file lock and
    re-scans for the key before appending, so every point lands in the
    file **exactly once** even when two writers race to finish it;
    :meth:`refresh` incrementally picks up lines appended by other
    processes (tracking a byte offset, so a refresh after *n* new points
    reads only those *n* lines).
    """

    def __init__(self, path) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.entries: Dict[str, Any] = {}
        #: Unparseable/garbled lines skipped during load.
        self.dropped_lines = 0
        #: Points served from the journal by the executor this run.
        self.skipped = 0
        #: Bytes of the file already parsed (complete lines only).
        self._offset = 0
        self._lineno = 0
        #: An incomplete tail was already counted as dropped; a writer
        #: mid-append looks identical to a crash artifact, so the tail
        #: is counted once and re-examined (not re-counted) on refresh.
        self._torn_counted = False
        self._scan(count_torn_tail=True)

    @staticmethod
    def _line_digest(key: str, payload: Any) -> str:
        blob = json.dumps([key, payload], sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _parse_line(self, raw: bytes) -> Optional[tuple]:
        line = raw.strip()
        if not line:
            return None
        self._lineno += 1
        try:
            doc = json.loads(line)
            if doc.get("schema") != JOURNAL_SCHEMA:
                raise ValueError(f"unknown schema {doc.get('schema')!r}")
            key, payload = doc["key"], doc["payload"]
            if self._line_digest(key, payload) != doc.get("sha256"):
                raise ValueError("line digest mismatch")
        except Exception as exc:
            if self._torn_counted:
                # The once-torn tail got terminated by a later writer's
                # fresh-line newline; it was already counted at load.
                self._torn_counted = False
            else:
                self.dropped_lines += 1
                logger.warning(
                    "journal %s: dropping corrupt line %d (%s)",
                    self.path.name,
                    self._lineno,
                    exc,
                )
            return None
        if self._torn_counted:
            # The "torn tail" counted at load was a live writer's
            # in-flight append that has since completed: roll back the
            # provisional drop.
            self._torn_counted = False
            self.dropped_lines -= 1
        return key, payload

    def _scan(self, count_torn_tail: bool = False) -> int:
        """Parse complete lines from the stored offset; returns #new keys.

        A trailing line with no newline is left unconsumed (the offset
        stays at its start): it is either a crash artifact — counted as
        dropped once when ``count_torn_tail`` — or another worker's
        in-flight append, completed by the time of the next scan.
        """
        if not self.path.exists():
            return 0
        new = 0
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            for raw in handle:
                if not raw.endswith(b"\n"):
                    if count_torn_tail and not self._torn_counted:
                        self._torn_counted = True
                        self.dropped_lines += 1
                        logger.warning(
                            "journal %s: dropping truncated tail line "
                            "(crash mid-append)",
                            self.path.name,
                        )
                    break
                self._offset += len(raw)
                parsed = self._parse_line(raw)
                if parsed is not None and parsed[0] not in self.entries:
                    self.entries[parsed[0]] = parsed[1]
                    new += 1
        return new

    def refresh(self) -> int:
        """Pick up entries appended by other processes since the last scan.

        Cheap enough for per-point polling: reads only bytes beyond the
        consumed offset.  Returns the number of new keys.
        """
        return self._scan(count_torn_tail=False)

    def __contains__(self, key: object) -> bool:
        return key in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, key: str) -> Any:
        return self.entries[key]

    def record(self, key: str, payload: Any) -> None:
        """Durably append one completed point (idempotent per key).

        Idempotence holds across *processes*: the append happens under
        an advisory file lock, after a re-scan for concurrently written
        lines, so racing workers produce one line per key — first
        writer wins, exactly as within a single process.
        """
        if key in self.entries:
            return
        line = json.dumps(
            {
                "schema": JOURNAL_SCHEMA,
                "key": key,
                "sha256": self._line_digest(key, payload),
                "payload": payload,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        from repro.io import file_lock

        with file_lock(self.path.with_name(self.path.name + ".lock")):
            self._scan(count_torn_tail=False)
            if key in self.entries:
                return
            # A crash mid-append leaves a torn final line with no
            # newline; appending straight after it would weld this
            # record onto the garbage and lose BOTH lines.  Start a
            # fresh line instead.
            torn_tail = False
            if self.path.exists() and self.path.stat().st_size:
                with open(self.path, "rb") as tail:
                    tail.seek(-1, os.SEEK_END)
                    torn_tail = tail.read(1) != b"\n"
            with open(self.path, "a") as handle:
                if torn_tail:
                    handle.write("\n")
                handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        self.entries[key] = payload
