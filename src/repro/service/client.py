"""Thin urllib client for the campaign service HTTP API.

Everything the CLI's ``repro submit`` / ``repro jobs`` subcommands do
goes through this class, and it is the supported way to drive the
service from Python::

    client = ServiceClient("http://127.0.0.1:8351")
    job_id = client.submit(CampaignJobSpec(preset="blobs-mini", fast=True))
    client.wait(job_id)
    report = SurvivabilityReport.from_dict(client.result(job_id))

Stdlib-only (``urllib``), mirroring the server's zero-dependency
stance.  Failures are *typed*: transport faults and HTTP 5xx raise
:class:`~repro.exceptions.ServiceUnavailableError` (``retryable=True``)
and are retried on a seeded-jitter
:class:`~repro.core.executor.RetryPolicy` schedule before surfacing;
HTTP 4xx raises plain :class:`~repro.exceptions.ServiceError`
(``retryable=False``) immediately — a bad request does not get better
by asking again.
"""

from __future__ import annotations

import hashlib
import json
import time
import urllib.error
import urllib.request
from typing import Callable, List, Optional, Union

from repro.core.executor import RetryPolicy
from repro.exceptions import ServiceError, ServiceUnavailableError
from repro.service.jobs import TERMINAL_STATES, CampaignJobSpec


def _retryable(exc: Exception) -> bool:
    """Retry typed-retryable errors (transport faults, HTTP 5xx)."""
    return bool(getattr(exc, "retryable", False))


class ServiceClient:
    """JSON-over-HTTP client bound to one ``repro serve`` base URL."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        if retry is None:
            # Seeded jitter (per base URL) keeps retry schedules
            # deterministic for tests while decorrelating clients that
            # hammer the same server from different URLs/processes.
            seed = int.from_bytes(
                hashlib.sha256(self.base_url.encode("utf-8")).digest()[:4], "big"
            )
            retry = RetryPolicy(
                max_retries=4, backoff_base=0.1, jitter=0.5, jitter_seed=seed
            )
        self.retry = retry

    def _request(self, method: str, path: str, payload: Optional[dict] = None) -> dict:
        """One API call with retries on retryable (transport/5xx) errors."""
        route = f"{method} {path}"
        state = {"attempt": 0}

        def once() -> dict:
            state["attempt"] += 1
            return self._attempt(method, path, payload, route, state["attempt"])

        return self.retry.call(once, token=route, retryable=_retryable)

    def _attempt(
        self, method: str, path: str, payload: Optional[dict], route: str, attempt: int
    ) -> dict:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            f"{self.base_url}{path}",
            data=body,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read().decode("utf-8")).get("error", "")
            except Exception:
                message = ""
            detail = f"{route} failed: HTTP {exc.code}" + (
                f" ({message})" if message else ""
            )
            if exc.code >= 500:
                raise ServiceUnavailableError(detail) from exc
            raise ServiceError(detail) from exc
        except urllib.error.URLError as exc:
            raise ServiceUnavailableError(
                f"cannot reach campaign service at {self.base_url}: {exc.reason}"
            ) from exc
        except (ConnectionResetError, ConnectionRefusedError, TimeoutError) as exc:
            raise ServiceUnavailableError(
                f"connection to campaign service at {self.base_url} "
                f"failed: {exc}"
            ) from exc

    # -- API surface -------------------------------------------------------
    def info(self) -> dict:
        return self._request("GET", "/api/info")

    def healthz(self) -> dict:
        """Liveness snapshot (job counts, worker fleet, uptime)."""
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        """Request/error counters plus the store's corruption recoveries."""
        return self._request("GET", "/metrics")

    def jobs_root(self) -> str:
        """Jobs directory the server schedules from (for local workers)."""
        return str(self.info()["jobs_root"])

    def submit(self, spec: Union[CampaignJobSpec, dict]) -> str:
        """Submit (or resume) a campaign job; returns its id."""
        payload = spec.to_dict() if isinstance(spec, CampaignJobSpec) else dict(spec)
        return str(self._request("POST", "/api/jobs", payload)["job_id"])

    def jobs(self) -> List[dict]:
        return list(self._request("GET", "/api/jobs")["jobs"])

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/api/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        """The finalized report dict (raises while points remain)."""
        return self._request("GET", f"/api/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict:
        return self._request("POST", f"/api/jobs/{job_id}/cancel")

    def wait(
        self,
        job_id: str,
        timeout: Optional[float] = None,
        poll_interval: float = 0.5,
        on_progress: Optional[Callable[[dict], None]] = None,
    ) -> dict:
        """Poll until the job reaches a terminal state; returns the status.

        ``on_progress`` (used by ``repro submit --watch``) is invoked
        with each status snapshot.  Raises :class:`ServiceError` if the
        job is still running when ``timeout`` elapses.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if on_progress is not None:
                on_progress(status)
            if status["status"] in TERMINAL_STATES:
                return status
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    f"timed out waiting for {job_id} "
                    f"({status['done']}/{status['total']} points done)"
                )
            time.sleep(poll_interval)
