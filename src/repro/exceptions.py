"""Exception hierarchy for the repro library.

A single root :class:`ReproError` lets applications catch everything from
this package with one clause, while the concrete subclasses let tests and
callers distinguish configuration mistakes from simulated hardware
failures.
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


class DeviceError(ReproError, RuntimeError):
    """A memristor device was driven outside its physical envelope."""


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint file is missing, corrupt, or from an unknown schema."""


class ServiceError(ReproError, RuntimeError):
    """A campaign-service operation failed (unknown job, bad spec, HTTP error).

    ``retryable`` distinguishes errors a caller may sensibly retry
    (transient infrastructure trouble) from ones that will fail the
    same way every time (bad spec, unknown job, 4xx responses).
    """

    #: Whether retrying the same operation can plausibly succeed.
    retryable = False


class ServiceUnavailableError(ServiceError):
    """The campaign service could not be reached or answered 5xx.

    Raised by :class:`~repro.service.client.ServiceClient` for
    connection failures (``urllib.error.URLError``,
    ``ConnectionResetError``) and HTTP 5xx responses — the transient
    class of failures worth retrying with backoff.  4xx responses stay
    plain (fatal) :class:`ServiceError`.
    """

    retryable = True


class CorruptStateError(ReproError, RuntimeError):
    """A guarded on-disk state file failed its checksum or did not parse.

    Raised by :func:`repro.io.load_json_guarded`; the campaign service
    catches it and rebuilds the damaged file (``leases.json`` /
    ``state.json``) from the journal, which stays the single source of
    truth.
    """
