"""Exception hierarchy for the repro library.

A single root :class:`ReproError` lets applications catch everything from
this package with one clause, while the concrete subclasses let tests and
callers distinguish configuration mistakes from runtime failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Root of every exception raised by this library."""


class ConfigurationError(ReproError, ValueError):
    """A configuration value is out of range or inconsistent."""


class ShapeError(ReproError, ValueError):
    """An array argument has an incompatible shape."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative procedure failed to converge within its budget."""


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint file is missing, corrupt, or from an unknown schema."""
