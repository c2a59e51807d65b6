"""Stdlib-only HTTP API over the job store (``repro serve``).

Endpoints (all JSON)::

    GET  /api/info                service identity + the jobs root, so
                                  `repro worker --server URL` can attach
    GET  /api/jobs                status of every job
    POST /api/jobs                submit a CampaignJobSpec -> {"job_id": ...}
    GET  /api/jobs/<id>           progress snapshot
    GET  /api/jobs/<id>/result    finalized SurvivabilityReport
                                  (409 + progress while points remain)
    POST /api/jobs/<id>/cancel    stop further execution (journal kept)
    GET  /healthz                 liveness: job/worker counts + uptime
    GET  /metrics                 request/error counters, corruption
                                  recoveries

The server holds no job state of its own — every request reads or
writes the shared on-disk :class:`~repro.service.jobs.JobStore`, which
is why it can restart freely, why requests are cheap, and why workers
never need to talk to it (they share the directory instead).  Built on
``http.server.ThreadingHTTPServer``: zero dependencies, good enough for
a lab fleet; it is explicitly not an internet-facing service.

:class:`CampaignService` bundles the server with an optional in-host
worker fleet (``workers=N`` forks N draining processes), which is what
``repro serve --workers N`` runs.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import pathlib
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional, Tuple

from repro.exceptions import ConfigurationError, ReproError, ServiceError
from repro.service.jobs import CampaignJobSpec, JobStore
from repro.service.worker import worker_main

logger = logging.getLogger(__name__)

#: API document version reported by /api/info.
API_SCHEMA = 1


class _JobsAPIHandler(BaseHTTPRequestHandler):
    """Routes requests to the :class:`JobStore` attached to the server."""

    server_version = "repro-serve/1"
    #: Set on the server instance by CampaignService.
    store: JobStore

    # -- plumbing ----------------------------------------------------------
    def log_message(self, fmt: str, *args) -> None:  # quiet by default
        logger.debug("%s - %s", self.address_string(), fmt % args)

    def _send_json(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            return {}
        payload = json.loads(self.rfile.read(length).decode("utf-8"))
        if not isinstance(payload, dict):
            raise ConfigurationError("request body must be a JSON object")
        return payload

    def _route(self) -> Tuple[str, ...]:
        path = self.path.split("?", 1)[0].strip("/")
        return tuple(p for p in path.split("/") if p)

    def _count(self, route: Tuple[str, ...], method: str, error: bool) -> None:
        """Tally the request in the server's /metrics counters.

        Job ids are collapsed to ``<id>`` so the route table stays
        bounded no matter how many jobs pass through.
        """
        parts = [
            "<id>" if i == 2 and route[:2] == ("api", "jobs") else p
            for i, p in enumerate(route)
        ]
        label = f"{method} /" + "/".join(parts)
        server = self.server
        lock = getattr(server, "metrics_lock", None)
        if lock is None:  # handler mounted on a bare HTTPServer
            return
        with lock:
            metrics = server.metrics  # type: ignore[attr-defined]
            metrics["requests_total"] += 1
            if error:
                metrics["errors_total"] += 1
            metrics["routes"][label] = metrics["routes"].get(label, 0) + 1

    # -- request handling --------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def _healthz(self, store: JobStore) -> dict:
        job_ids = store.list_ids()
        active = sum(1 for job_id in job_ids if store.is_active(job_id))
        started = getattr(self.server, "started_at", None)
        return {
            "status": "ok",
            "service": "repro-campaign-service",
            "schema": API_SCHEMA,
            "uptime_s": 0.0 if started is None else round(time.time() - started, 3),
            "jobs": {"total": len(job_ids), "active": active},
            "workers": getattr(self.server, "n_workers", 0),
        }

    def _metrics(self, store: JobStore) -> dict:
        server = self.server
        with server.metrics_lock:  # type: ignore[attr-defined]
            metrics = server.metrics  # type: ignore[attr-defined]
            requests = {
                "requests_total": metrics["requests_total"],
                "errors_total": metrics["errors_total"],
                "routes": dict(metrics["routes"]),
            }
        return {
            "requests": requests,
            "store": {
                "jobs": len(store.list_ids()),
                "recoveries": store.recoveries,
            },
        }

    def _dispatch(self, method: str) -> None:
        store = self.server.store  # type: ignore[attr-defined]
        route = self._route()
        error = False
        try:
            if method == "GET" and route == ("healthz",):
                self._send_json(self._healthz(store))
            elif method == "GET" and route == ("metrics",):
                self._send_json(self._metrics(store))
            elif method == "GET" and route == ("api", "info"):
                self._send_json(
                    {
                        "service": "repro-campaign-service",
                        "schema": API_SCHEMA,
                        "jobs_root": str(store.root.resolve()),
                    }
                )
            elif method == "GET" and route == ("api", "jobs"):
                self._send_json(
                    {
                        "jobs": [
                            store.status(job_id).to_dict()
                            for job_id in store.list_ids()
                        ]
                    }
                )
            elif method == "POST" and route == ("api", "jobs"):
                spec = CampaignJobSpec.from_dict(self._read_json())
                job_id = store.submit(spec)
                self._send_json(store.status(job_id).to_dict(), status=201)
            elif method == "GET" and len(route) == 3 and route[:2] == ("api", "jobs"):
                self._send_json(store.status(route[2]).to_dict())
            elif (
                method == "GET"
                and len(route) == 4
                and route[:2] == ("api", "jobs")
                and route[3] == "result"
            ):
                result = store.result(route[2])
                if result is None:
                    status = store.status(route[2]).to_dict()
                    status["error"] = "job is not complete"
                    self._send_json(status, status=409)
                else:
                    self._send_json(result)
            elif (
                method == "POST"
                and len(route) == 4
                and route[:2] == ("api", "jobs")
                and route[3] == "cancel"
            ):
                self._send_json(store.cancel(route[2]).to_dict())
            else:
                error = True
                self._send_json({"error": f"no such endpoint: {self.path}"}, 404)
        except (ConfigurationError, json.JSONDecodeError) as exc:
            error = True
            self._send_json({"error": str(exc)}, 400)
        except ServiceError as exc:
            error = True
            self._send_json({"error": str(exc)}, 404)
        except ReproError as exc:  # pragma: no cover - defensive catch-all
            error = True
            self._send_json({"error": str(exc)}, 500)
        finally:
            self._count(route, method, error)


class CampaignService:
    """HTTP API + optional worker fleet over one jobs directory.

    Usable as a context manager in tests (``with CampaignService(...) as
    svc:``) or driven by ``repro serve``.  ``port=0`` binds an ephemeral
    port, exposed via :attr:`address` once started.
    """

    def __init__(
        self,
        jobs_root,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 0,
        lease_ttl: float = 60.0,
        poll_interval: float = 0.2,
    ) -> None:
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        self.store = JobStore(jobs_root, lease_ttl=lease_ttl)
        self.n_workers = int(workers)
        self.lease_ttl = float(lease_ttl)
        self.poll_interval = float(poll_interval)
        self._httpd = ThreadingHTTPServer((host, port), _JobsAPIHandler)
        self._httpd.store = self.store  # type: ignore[attr-defined]
        self._httpd.n_workers = self.n_workers  # type: ignore[attr-defined]
        self._httpd.started_at = time.time()  # type: ignore[attr-defined]
        self._httpd.metrics_lock = threading.Lock()  # type: ignore[attr-defined]
        self._httpd.metrics = {  # type: ignore[attr-defined]
            "requests_total": 0,
            "errors_total": 0,
            "routes": {},
        }
        self._thread: Optional[threading.Thread] = None
        self._workers: List[multiprocessing.Process] = []

    @property
    def address(self) -> Tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "CampaignService":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        for i in range(self.n_workers):
            proc = multiprocessing.Process(
                target=worker_main,
                kwargs={
                    "jobs_root": str(pathlib.Path(self.store.root)),
                    "worker_id": f"serve-w{i}",
                    "lease_ttl": self.lease_ttl,
                    "poll_interval": self.poll_interval,
                },
                daemon=True,
                name=f"repro-worker-{i}",
            )
            proc.start()
            self._workers.append(proc)
        logger.info(
            "campaign service on %s (%d worker(s), jobs in %s)",
            self.url,
            self.n_workers,
            self.store.root,
        )
        return self

    def stop(self) -> None:
        for proc in self._workers:
            proc.terminate()
        for proc in self._workers:
            proc.join(timeout=5.0)
        self._workers.clear()
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "CampaignService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
