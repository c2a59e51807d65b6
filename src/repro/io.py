"""Persistence: model weights, experiment results and durable files.

* Model weights go to ``.npz`` (exact float64 round trip).
* Lifetime results and scenario comparisons go to JSON,
  so downstream analysis (or the paper tables) can be regenerated
  without re-running multi-minute simulations.
* :func:`save_text_atomic` / :func:`load_json` back the checkpoint
  snapshots (:mod:`repro.core.checkpoint`): writes go through a fsync'd
  same-directory temp file + ``os.replace`` so a killed run can never
  leave a truncated snapshot behind, and :func:`file_lock` serializes
  the appends of processes sharing one run journal.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import time
from typing import Any, Iterator, Union

try:  # POSIX advisory locks; absent on some platforms.
    import fcntl as _fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback path
    _fcntl = None

import numpy as np

from repro.core.results import LifetimeResult, ScenarioComparison
from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.model import Sequential

PathLike = Union[str, pathlib.Path]


# -- durable files -------------------------------------------------------------
def save_text_atomic(text: str, path: PathLike) -> None:
    """Write ``text`` durably via an atomic same-directory rename.

    The temp file is fsync'd before the rename (and the directory
    after), so a crash can leave either the old file or the complete new
    one — never a torn write that *looks* committed.
    """
    path = pathlib.Path(path)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    with open(tmp, "w") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)


@contextlib.contextmanager
def file_lock(path: PathLike, timeout: float = 30.0) -> Iterator[None]:
    """Exclusive advisory lock guarding cross-process read-modify-write.

    :class:`~repro.core.checkpoint.RunJournal` serializes the appends of
    processes sharing one journal through this lock.  On POSIX the lock
    is ``flock`` on ``path`` itself (created empty if missing) — released
    automatically when the holder dies, so a killed process can never
    wedge the others.  Elsewhere a best-effort ``O_CREAT|O_EXCL`` spin
    lock is used, with ``timeout`` bounding the wait (a stale lock file
    older than the timeout is broken rather than waited on forever).
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if _fcntl is None:  # pragma: no cover - platforms without fcntl
        with _spin_lock(path, timeout):
            yield
        return
    fd = os.open(path, os.O_RDWR | os.O_CREAT)
    try:
        _fcntl.flock(fd, _fcntl.LOCK_EX)
        yield
    finally:
        try:
            _fcntl.flock(fd, _fcntl.LOCK_UN)
        finally:
            os.close(fd)


@contextlib.contextmanager
def _spin_lock(path: pathlib.Path, timeout: float):  # pragma: no cover
    """``O_CREAT|O_EXCL`` fallback lock for platforms without ``flock``."""
    spin = pathlib.Path(f"{path}.excl")
    deadline = time.monotonic() + timeout
    while True:
        try:
            fd = os.open(spin, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
            break
        except FileExistsError:
            if time.monotonic() > deadline:
                try:  # break a stale lock left by a dead holder
                    if time.time() - spin.stat().st_mtime > timeout:
                        spin.unlink(missing_ok=True)
                        continue
                except OSError:
                    pass
                raise TimeoutError(f"could not acquire lock {spin}")
            time.sleep(0.01)
    try:
        yield
    finally:
        spin.unlink(missing_ok=True)


def _fsync_dir(directory: pathlib.Path) -> None:
    """Flush a directory entry so a rename survives power loss."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. non-POSIX directory handles
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def load_json(path: PathLike) -> Any:
    """Read a JSON document (raises on missing/corrupt files)."""
    return json.loads(pathlib.Path(path).read_text())


# -- model weights ------------------------------------------------------------
def save_weights(model: Sequential, path: PathLike) -> None:
    """Save every layer's parameters to an ``.npz`` archive."""
    arrays = {}
    for i, layer in enumerate(model.layers):
        for name, value in layer.params.items():
            arrays[f"layer{i}.{name}"] = value
    np.savez(path, **arrays)


def load_weights(model: Sequential, path: PathLike) -> Sequential:
    """Restore parameters saved by :func:`save_weights` (in place).

    The model must have the same architecture (same layer parameter
    names and shapes).
    """
    with np.load(path) as archive:
        for i, layer in enumerate(model.layers):
            for name, param in layer.params.items():
                key = f"layer{i}.{name}"
                if key not in archive:
                    raise ConfigurationError(f"archive missing parameter {key!r}")
                value = archive[key]
                if value.shape != param.shape:
                    raise ShapeError(
                        f"{key}: archive shape {value.shape} != model {param.shape}"
                    )
                param[...] = value
    return model


# -- lifetime results ----------------------------------------------------------
def save_result(result: LifetimeResult, path: PathLike) -> None:
    """Write a lifetime result to JSON."""
    pathlib.Path(path).write_text(json.dumps(result.to_dict(), indent=2))


def load_result(path: PathLike) -> LifetimeResult:
    """Read a lifetime result from JSON."""
    return LifetimeResult.from_dict(json.loads(pathlib.Path(path).read_text()))


def save_comparison(comparison: ScenarioComparison, path: PathLike) -> None:
    """Write a scenario comparison to JSON."""
    payload = {
        "workload": comparison.workload,
        "baseline_key": comparison.baseline_key,
        "results": {k: r.to_dict() for k, r in comparison.results.items()},
    }
    pathlib.Path(path).write_text(json.dumps(payload, indent=2))


def load_comparison(path: PathLike) -> ScenarioComparison:
    """Read a scenario comparison from JSON."""
    payload = json.loads(pathlib.Path(path).read_text())
    comparison = ScenarioComparison(
        workload=str(payload["workload"]),
        baseline_key=str(payload.get("baseline_key", "t+t")),
    )
    for key, d in payload.get("results", {}).items():
        comparison.results[key] = LifetimeResult.from_dict(d)
    return comparison
