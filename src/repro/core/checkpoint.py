"""Durable checkpoint/resume for lifetime runs and campaign grids.

The paper's lifetime experiments are long-horizon: thousands of tuning
epochs per scenario, multiplied by the fault-campaign grid.  A killed
worker or a CI timeout must not throw away completed windows, so this
module provides two complementary durability primitives:

* **Snapshots** — a versioned, atomic, content-hashed file capturing one
  :class:`~repro.core.lifetime.LifetimeSimulator` mid-run: every
  crossbar tile's programmed state and ``state_version``, the aging
  bookkeeping the tracers read (pulse counts, stress times), the tuner's
  and fault stream's RNG bit-generator states, and the partial
  :class:`~repro.core.results.LifetimeResult`.  Resuming from a snapshot
  continues **bit-identically** to an uninterrupted run: every random
  stream picks up exactly where it stopped (golden-suite-verified by
  ``tests/integration/test_checkpoint_resume.py``).

* **Journals** — an append-only JSONL record of completed grid points
  for :class:`~repro.robustness.campaign.FaultCampaign` runs through the
  :class:`~repro.core.executor.ParallelExecutor`.  A re-launched
  campaign skips journaled points outright.  The journal is
  corrupt-tail tolerant: a crash mid-append leaves a truncated last
  line, which is dropped (with a warning) instead of poisoning the run.

Snapshot files are written write-to-temp + fsync + rename
(:func:`repro.io.save_text_atomic` with ``durable=True``), so a crash
can leave the previous checkpoint or the complete new one — never a
torn file that parses.  Every snapshot embeds a SHA-256 of its payload's
canonical (sorted-key, compact) JSON, and the file holds the payload in
exactly that encoding; bit rot is detected at load time, not silently
resumed from.

Schema layout (``CHECKPOINT_SCHEMA = 1``)::

    {"schema": 1, "kind": "repro-lifetime-checkpoint", "sha256": ...,
     "payload": {
        "meta":     {scenario_key, next_window, applications, created_unix},
        "result":   <partial LifetimeResult.to_dict()>,
        "rng":      {"tuner": <bit-generator state>, "fault": ... | null},
        "layers":   [{"layer_index", "arms": [{"name",
                      "tiles": [{resistance, stress_time, pulse_counts,
                                 r_fresh_min, r_fresh_max, state_version,
                                 read_noise_extra, pulse_miss_rate,
                                 rng: <bit-generator state>}, ...]}]}],
        "context_pickle": <base64 cloudpickle of the simulator>}}

The structured sections are authoritative on restore: the simulator
skeleton is rebuilt from the context pickle, then every tile array, the
``state_version`` counters and all RNG streams are overwritten from the
schema'd data — so the inspectable format *is* the resume path, not a
decorative sidecar.
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
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.results import LifetimeResult
from repro.exceptions import CheckpointError, ConfigurationError
from repro.io import load_json, save_text_atomic

logger = logging.getLogger(__name__)

try:  # cloudpickle ships closures (network builders, hooks); see executor.
    import cloudpickle as _serializer
except Exception:  # pragma: no cover - exercised only without cloudpickle
    import pickle as _serializer

#: Snapshot format version; bump when the payload layout changes.
CHECKPOINT_SCHEMA = 1
#: Journal line format version.
JOURNAL_SCHEMA = 1

_CHECKPOINT_KIND = "repro-lifetime-checkpoint"
#: Snapshot filename suffix recognized by ls/gc.
CHECKPOINT_SUFFIX = ".ckpt.json"


# -- array + RNG (de)serialization --------------------------------------------
def _encode_array(arr: np.ndarray) -> dict:
    """Exact (dtype/shape/bytes) JSON-ready form of a numpy array."""
    arr = np.ascontiguousarray(arr)
    return {
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def _decode_array(d: dict) -> np.ndarray:
    """Inverse of :func:`_encode_array` (bit-exact round trip)."""
    raw = base64.b64decode(d["data"])
    arr = np.frombuffer(raw, dtype=np.dtype(d["dtype"]))
    return arr.reshape(tuple(d["shape"])).copy()


def rng_state(gen: np.random.Generator) -> dict:
    """JSON-ready bit-generator state of a numpy Generator."""
    return json.loads(json.dumps(gen.bit_generator.state))


def restore_rng(gen: np.random.Generator, state: dict) -> None:
    """Install a captured bit-generator state (exact stream position)."""
    if state.get("bit_generator") != gen.bit_generator.state.get("bit_generator"):
        raise CheckpointError(
            "bit-generator mismatch: snapshot has "
            f"{state.get('bit_generator')!r}, simulator has "
            f"{gen.bit_generator.state.get('bit_generator')!r}"
        )
    gen.bit_generator.state = state


# -- simulator state capture ---------------------------------------------------
def _layer_arms(mapped_layer) -> List[Tuple[str, Any]]:
    """Named :class:`~repro.crossbar.tiling.TiledMatrix` arms of a layer.

    A mapped layer has one arm, ``tiles``; snapshots key tile state by
    arm name.
    """
    return [("tiles", mapped_layer.tiles)]


def _iter_arm_tiles(arm) -> Iterator[Any]:
    for _rs, _cs, tile in arm.iter_tiles():
        yield tile


def _capture_tile(tile) -> dict:
    return {
        "resistance": _encode_array(tile.resistance),
        "stress_time": _encode_array(tile.stress_time),
        "pulse_counts": _encode_array(tile.pulse_counts),
        "r_fresh_min": _encode_array(tile.r_fresh_min),
        "r_fresh_max": _encode_array(tile.r_fresh_max),
        "state_version": int(tile.state_version),
        "read_noise_extra": float(tile.read_noise_extra),
        "pulse_miss_rate": float(tile.pulse_miss_rate),
        "rng": rng_state(tile._rng),
    }


def _restore_tile(tile, d: dict) -> None:
    # Arrays are installed directly (not via the ``resistance`` setter)
    # so the restored ``state_version`` matches the uninterrupted run's
    # counter exactly; caches are dropped by hand instead.
    tile._resistance = _decode_array(d["resistance"])
    tile.stress_time = _decode_array(d["stress_time"])
    tile.pulse_counts = _decode_array(d["pulse_counts"])
    tile.r_fresh_min = _decode_array(d["r_fresh_min"])
    tile.r_fresh_max = _decode_array(d["r_fresh_max"])
    tile.read_noise_extra = float(d["read_noise_extra"])
    tile.pulse_miss_rate = float(d["pulse_miss_rate"])
    tile._conductance_cache = None
    tile._bounds_cache = None
    tile._dead_cache = None
    tile._state_version = int(d["state_version"])
    restore_rng(tile._rng, d["rng"])


def capture_simulator(
    simulator,
    result: LifetimeResult,
    next_window: int,
    applications: int,
) -> dict:
    """Schema'd snapshot payload of a mid-run lifetime simulator.

    Must be called at a window boundary (after a window's record has
    been appended to ``result``); ``next_window`` is the first window
    the resumed run will execute.  Capturing draws no randomness and
    mutates nothing, so a checkpointing run is bit-identical to a
    non-checkpointing one.
    """
    layers = []
    for mapped in simulator.network.layers:
        layers.append(
            {
                "layer_index": int(mapped.layer_index),
                "arms": [
                    {
                        "name": name,
                        "tiles": [_capture_tile(t) for t in _iter_arm_tiles(arm)],
                    }
                    for name, arm in _layer_arms(mapped)
                ],
            }
        )
    return {
        "meta": {
            "scenario_key": result.scenario_key,
            "next_window": int(next_window),
            "applications": int(applications),
            "created_unix": time.time(),
        },
        "result": result.to_dict(),
        "rng": {
            "tuner": rng_state(simulator.tuner._rng),
            "fault": (
                rng_state(simulator._fault_rng)
                if simulator._fault_rng is not None
                else None
            ),
        },
        "layers": layers,
        "context_pickle": base64.b64encode(
            _serializer.dumps(simulator)
        ).decode("ascii"),
    }


def restore_simulator(payload: dict):
    """Rebuild a simulator from a snapshot payload.

    Returns ``(simulator, partial_result, next_window, applications)``.
    The object graph comes from the context pickle; every tile array,
    ``state_version`` and RNG stream is then overwritten from the
    structured sections, which are the format's source of truth.

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
    # Captures happen outside any read-reuse scope, but reset the
    # network-level memo state anyway (covers snapshots pickled by
    # builds without it, and makes restore independent of capture
    # context): scratch-model contents are derived state, rebuilt from
    # the authoritative tile arrays on first read.
    network = simulator.network
    network._reuse_depth = 0
    network._scratch_holds = None
    network._software_snapshot = None
    restore_rng(simulator.tuner._rng, payload["rng"]["tuner"])
    fault_state = payload["rng"].get("fault")
    if fault_state is not None:
        if simulator._fault_rng is None:
            raise CheckpointError(
                "snapshot has a fault RNG stream but the restored simulator "
                "has no fault schedule"
            )
        restore_rng(simulator._fault_rng, fault_state)

    by_index = {m.layer_index: m for m in simulator.network.layers}
    for layer_doc in payload["layers"]:
        mapped = by_index.get(int(layer_doc["layer_index"]))
        if mapped is None:
            raise CheckpointError(
                f"snapshot references layer {layer_doc['layer_index']} "
                "missing from the restored network"
            )
        arms = dict(_layer_arms(mapped))
        for arm_doc in layer_doc["arms"]:
            arm = arms.get(arm_doc["name"])
            if arm is None:
                raise CheckpointError(
                    f"snapshot arm {arm_doc['name']!r} missing on layer "
                    f"{mapped.layer_index}"
                )
            tiles = list(_iter_arm_tiles(arm))
            if len(tiles) != len(arm_doc["tiles"]):
                raise CheckpointError(
                    f"snapshot has {len(arm_doc['tiles'])} tiles for layer "
                    f"{mapped.layer_index}/{arm_doc['name']}, network has "
                    f"{len(tiles)}"
                )
            for tile, tile_doc in zip(tiles, arm_doc["tiles"]):
                if tuple(tile_doc["resistance"]["shape"]) != tile.shape:
                    raise CheckpointError(
                        f"tile shape mismatch on layer {mapped.layer_index}: "
                        f"snapshot {tile_doc['resistance']['shape']} vs "
                        f"network {list(tile.shape)}"
                    )
                _restore_tile(tile, tile_doc)

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
    save_text_atomic(document, path, durable=True)
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

    ``context_bytes`` is the size of the decoded context pickle and
    ``state_bytes`` that of the structured ``layers`` section as
    encoded in the file.
    """
    payload = load_checkpoint(path)
    meta = payload["meta"]
    result = payload["result"]
    n_tiles = sum(
        len(arm["tiles"]) for layer in payload["layers"] for arm in layer["arms"]
    )
    n_devices = sum(
        int(np.prod(tile["resistance"]["shape"]))
        for layer in payload["layers"]
        for arm in layer["arms"]
        for tile in arm["tiles"]
    )
    return {
        "path": str(path),
        "schema": CHECKPOINT_SCHEMA,
        "scenario_key": meta["scenario_key"],
        "next_window": int(meta["next_window"]),
        "applications": int(meta["applications"]),
        "created_unix": float(meta["created_unix"]),
        "windows_recorded": len(result.get("windows", [])),
        "failed": bool(result.get("failed", False)),
        "layers": len(payload["layers"]),
        "tiles": n_tiles,
        "devices": n_devices,
        "bytes": pathlib.Path(path).stat().st_size,
        "context_bytes": len(base64.b64decode(payload["context_pickle"])),
        "state_bytes": len(_canonical_json(payload["layers"])),
    }


# -- checkpoint directory management ------------------------------------------
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
            stem = path.name[: -len(CHECKPOINT_SUFFIX)]
            run_id, sep, tail = stem.rpartition("-w")
            if not sep or not tail.isdigit():
                continue
            stat = path.stat()
            out.append(
                CheckpointInfo(
                    path=path,
                    run_id=run_id,
                    window=int(tail),
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
            doomed = entries[: len(entries) - keep] if keep else entries
            for entry in doomed:
                entry.path.unlink(missing_ok=True)
                removed.append(entry.path)
        return removed


# -- campaign journal ---------------------------------------------------------
class RunJournal:
    """Append-only JSONL record of completed grid points.

    One line per completed point: ``{"schema": 1, "key": <content
    hash>, "sha256": <line digest>, "payload": <encoded result>}``.
    Keys are the same content-hash fingerprints the
    :class:`~repro.core.executor.ResultCache` uses, so a config change
    re-executes points instead of resuming stale ones.

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

    def __init__(self, path, resume: bool = True) -> None:
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
        if self.path.exists():
            if resume:
                self._scan(count_torn_tail=True)
            else:
                self.path.unlink()

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
