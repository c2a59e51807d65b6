"""End-to-end HTTP API tests: submit over the wire, drain with 2 workers.

This is the ISSUE's acceptance demo in test form: a campaign submitted
through the HTTP API, drained by two real worker processes, must yield
a ``SurvivabilityReport`` bit-identical to the serial campaign.
"""

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.core.executor import RetryPolicy
from repro.exceptions import ServiceError, ServiceUnavailableError
from repro.service import CampaignJobSpec, CampaignService, ServiceClient, ServiceWorker


def _impatient_retry() -> RetryPolicy:
    return RetryPolicy(max_retries=1, backoff_base=0.01, jitter=0.5, jitter_seed=0)


@pytest.fixture()
def service(tmp_path):
    with CampaignService(tmp_path / "jobs", workers=0) as svc:
        yield svc


@pytest.fixture()
def client(service):
    return ServiceClient(service.url, timeout=10.0)


class TestAPI:
    def test_info_advertises_jobs_root(self, service, client):
        info = client.info()
        assert info["service"] == "repro-campaign-service"
        assert client.jobs_root() == str(service.store.root.resolve())

    def test_submit_status_and_ls(self, client, spec):
        assert client.jobs() == []
        job_id = client.submit(spec)
        status = client.status(job_id)
        assert (status["status"], status["done"], status["total"]) == ("queued", 0, 3)
        assert [j["job_id"] for j in client.jobs()] == [job_id]

    def test_submit_accepts_plain_dict(self, client, spec):
        assert client.submit(spec.to_dict()) == spec.job_id()

    def test_bad_spec_is_400(self, client, spec):
        with pytest.raises(ServiceError, match="400"):
            client.submit({**spec.to_dict(), "preset": "nope"})

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError, match="404"):
            client.status("job-doesnotexist")

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(ServiceError, match="404"):
            client._request("GET", "/api/bogus")

    def test_result_before_completion_is_409(self, client, spec):
        job_id = client.submit(spec)
        with pytest.raises(ServiceError, match="409"):
            client.result(job_id)

    def test_cancel(self, client, spec):
        job_id = client.submit(spec)
        assert client.cancel(job_id)["status"] == "cancelled"
        status = client.wait(job_id, timeout=5.0, poll_interval=0.05)
        assert status["status"] == "cancelled"

    def test_unreachable_server(self):
        client = ServiceClient(
            "http://127.0.0.1:9", timeout=0.5, retry=_impatient_retry()
        )
        with pytest.raises(ServiceError, match="cannot reach"):
            client.info()


class TestHealthAndMetrics:
    def test_healthz_snapshot(self, client, spec):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["jobs"] == {"total": 0, "active": 0}
        assert health["uptime_s"] >= 0
        client.submit(spec)
        health = client.healthz()
        assert health["jobs"] == {"total": 1, "active": 1}

    def test_metrics_count_requests_and_errors(self, client, spec):
        client.info()
        with pytest.raises(ServiceError):
            client.status("job-doesnotexist")
        metrics = client.metrics()
        requests = metrics["requests"]
        assert requests["requests_total"] >= 2
        assert requests["errors_total"] >= 1
        assert requests["routes"]["GET /api/info"] >= 1
        # Job ids are collapsed so the route table stays bounded.
        assert requests["routes"]["GET /api/jobs/<id>"] >= 1
        assert "chaos" not in metrics
        assert metrics["store"]["recoveries"] == 0


class TestTypedErrors:
    def test_4xx_is_fatal_and_not_retried(self, client):
        with pytest.raises(ServiceError) as err:
            client.status("job-doesnotexist")
        assert not isinstance(err.value, ServiceUnavailableError)
        assert err.value.retryable is False
        # Exactly one request hit the server: fatal errors skip retries.
        assert client.metrics()["requests"]["routes"]["GET /api/jobs/<id>"] == 1

    def test_unreachable_server_raises_typed_retryable(self):
        client = ServiceClient(
            "http://127.0.0.1:9", timeout=0.3, retry=_impatient_retry()
        )
        with pytest.raises(ServiceUnavailableError) as err:
            client.info()
        assert err.value.retryable is True

    def test_http_5xx_maps_to_service_unavailable(self):
        class AlwaysBroken(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - http.server API
                body = b'{"error": "meltdown"}'
                self.send_response(500)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, fmt, *args):
                pass

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), AlwaysBroken)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = httpd.server_address[:2]
            client = ServiceClient(
                f"http://{host}:{port}", timeout=2.0, retry=_impatient_retry()
            )
            with pytest.raises(ServiceUnavailableError, match="HTTP 500"):
                client.info()
        finally:
            httpd.shutdown()
            thread.join(timeout=5.0)
            httpd.server_close()


class TestEndToEnd:
    def test_http_submit_drained_by_two_workers_matches_serial(
        self, tmp_path, spec, golden_report
    ):
        # Two real worker processes polling the shared jobs directory.
        with CampaignService(
            tmp_path / "jobs", workers=2, poll_interval=0.05, lease_ttl=30.0
        ) as svc:
            client = ServiceClient(svc.url, timeout=10.0)
            job_id = client.submit(
                CampaignJobSpec(**{**spec.to_dict(), "chunk_points": 1})
            )
            status = client.wait(job_id, timeout=240.0, poll_interval=0.1)
            assert status["status"] == "done"
            assert status["done"] == status["total"] == 3
            result = client.result(job_id)
        assert result == golden_report.to_dict()

    def test_watch_progress_callback_fires(self, tmp_path, spec, golden_report):
        with CampaignService(tmp_path / "jobs", workers=0) as svc:
            client = ServiceClient(svc.url, timeout=10.0)
            job_id = client.submit(spec)
            # Drain in-process (no subprocess spin-up) while polling.
            ServiceWorker(svc.store, worker_id="inline").drain()
            snapshots = []
            status = client.wait(
                job_id, timeout=30.0, poll_interval=0.05,
                on_progress=snapshots.append,
            )
            assert status["status"] == "done"
            assert snapshots and snapshots[-1]["done"] == 3
            assert client.result(job_id) == golden_report.to_dict()

    def test_wait_timeout_raises(self, tmp_path, spec):
        with CampaignService(tmp_path / "jobs", workers=0) as svc:
            client = ServiceClient(svc.url, timeout=10.0)
            job_id = client.submit(spec)  # nobody drains it
            with pytest.raises(ServiceError, match="timed out"):
                client.wait(job_id, timeout=0.2, poll_interval=0.05)
