"""Chaos battery: every injected failure mode ends in a terminal state.

The acceptance bar from DESIGN.md §13: under each chaos mode the job
must reach a terminal state (never hang), leave no live leases behind,
list every quarantined point, and keep the *surviving* points
bit-identical to the serial campaign's records.

All injection decisions are pure functions of ``(seed, site, token)``
(see ``tests/service/chaos.py``), so every test here is deterministic:
the seeds are picked by scanning for one that produces the shape the
test needs (e.g. a mixed doomed/healthy grid), which is itself a
deterministic computation.
"""

import pytest

from repro.exceptions import ConfigurationError, ServiceUnavailableError
from repro.service import (
    CampaignJobSpec,
    CampaignService,
    JobStore,
    ServiceClient,
    ServiceWorker,
)
from repro.service.jobs import TERMINAL_STATES, failure_key
from tests.service.chaos import (
    CHAOS_MODES,
    ChaosConfig,
    ChaosController,
    ChaosError,
    arm,
)


class TestChaosConfig:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown chaos mode"):
            ChaosConfig(modes=("set-on-fire",))

    def test_bad_rate_rejected(self):
        with pytest.raises(ConfigurationError, match="crash_rate"):
            ChaosConfig(modes=("crash-point",), crash_rate=1.5)
        with pytest.raises(ConfigurationError, match="skew_s"):
            ChaosConfig(modes=("clock-skew",), skew_s=-1.0)


class TestDeterminism:
    def test_doomed_set_is_a_function_of_seed(self):
        keys = [f"key-{i}" for i in range(64)]
        a = ChaosController(ChaosConfig(modes=("crash-point",), seed=1))
        b = ChaosController(ChaosConfig(modes=("crash-point",), seed=1))
        c = ChaosController(ChaosConfig(modes=("crash-point",), seed=2))
        doomed = [k for k in keys if a.point_is_doomed(k)]
        assert doomed == [k for k in keys if b.point_is_doomed(k)]
        assert doomed != [k for k in keys if c.point_is_doomed(k)]
        assert 0 < len(doomed) < len(keys)

    def test_doomed_point_crashes_on_every_attempt(self):
        ctrl = ChaosController(ChaosConfig(modes=("crash-point",), seed=1))
        keys = (f"key-{i}" for i in range(64))
        doomed = next(k for k in keys if ctrl.point_is_doomed(k))
        for _ in range(3):
            with pytest.raises(ChaosError):
                ctrl.crash_point(doomed)
        assert ctrl.injected["crash-point"] == 3

    def test_corrupt_only_touches_coordination_files(self, tmp_path):
        ctrl = ChaosController(
            ChaosConfig(modes=("corrupt-write",), seed=0, corrupt_rate=1.0)
        )
        journal = tmp_path / "journal.jsonl"
        journal.write_text('{"k": 1}\n' * 4)
        assert not ctrl.corrupt_file(journal)  # ground truth is off-limits
        leases = tmp_path / "leases.json"
        leases.write_text('{"chunks": {"0": {"state": "pending"}}}')
        assert ctrl.corrupt_file(leases)
        assert ctrl.injected["corrupt-write"] == 1

    def test_drop_is_transient_per_attempt(self):
        ctrl = ChaosController(
            ChaosConfig(modes=("drop-response",), seed=0, drop_rate=0.5)
        )
        outcomes = []
        for attempt in range(1, 21):
            try:
                ctrl.drop_response("GET /api/info", attempt)
                outcomes.append(True)
            except ServiceUnavailableError:
                outcomes.append(False)
        assert any(outcomes) and not all(outcomes)

    def test_skew_is_bounded_and_per_identity(self):
        ctrl = ChaosController(ChaosConfig(modes=("clock-skew",), seed=0, skew_s=4.0))
        offsets = {w: ctrl.skew_for(w) for w in ("alice", "bob", "carol")}
        assert all(-4.0 <= o <= 4.0 for o in offsets.values())
        assert len(set(offsets.values())) > 1
        inactive = ChaosController(ChaosConfig())
        assert inactive.skew_for("alice") == 0.0


# -- battery helpers -------------------------------------------------------


def _drain(store, n_workers=1):
    """Drive n in-process workers to quiescence; returns the workers."""
    workers = [ServiceWorker(store, worker_id=f"w{i}") for i in range(n_workers)]
    progressed = True
    while progressed:
        progressed = False
        for worker in workers:
            progressed |= worker.run_once()
    return workers


def _submit_per_point_chunks(store, spec):
    return store.submit(CampaignJobSpec(**{**spec.to_dict(), "chunk_points": 1}))


def _assert_no_hung_leases(store, job_id):
    snapshot = store.leases(job_id).snapshot()
    assert snapshot["leased"] == 0 and snapshot["expired"] == 0
    assert snapshot["pending"] == 0
    assert store.leases(job_id).all_resolved()


def _surviving_records_match_golden(result, golden_report):
    golden = {r["point"]: r for r in golden_report.to_dict()["records"]}
    for record in result["records"]:
        if not record["failed"]:
            assert record == golden[record["point"]]


def _pick_mixed_crash_seed(keys):
    """First seed whose doomed set is non-empty but not the whole grid."""
    for seed in range(500):
        ctrl = ChaosController(ChaosConfig(modes=("crash-point",), seed=seed))
        doomed = [k for k in keys if ctrl.point_is_doomed(k)]
        if 0 < len(doomed) < len(keys):
            return seed, doomed
    pytest.fail("no mixed crash seed in range")


class TestCrashPointMode:
    def test_poison_points_quarantined_survivors_bit_identical(
        self, tmp_path, monkeypatch, spec, golden_report
    ):
        store = JobStore(tmp_path)
        job_id = _submit_per_point_chunks(store, spec)
        document = store.load(job_id)
        keys = [p["key"] for p in document["points"]]
        seed, doomed = _pick_mixed_crash_seed(keys)
        ctrl = arm(monkeypatch, ChaosConfig(modes=("crash-point",), seed=seed))

        _drain(store)

        status = store.status(job_id)
        assert status.status == "completed_with_failures"
        assert status.failed == len(doomed)
        assert status.done == len(keys) - len(doomed)
        _assert_no_hung_leases(store, job_id)
        assert store.leases(job_id).snapshot()["quarantined"] == len(doomed)

        # Every doomed point has a structured failure record journaled
        # under its derived key, at the full attempt budget.
        journal = store.journal(job_id)
        doomed_names = set()
        for point_doc in document["points"]:
            if point_doc["key"] in doomed:
                record = journal.get(failure_key(point_doc["key"]))
                assert record["attempts"] == store.max_chunk_attempts
                assert "chaos" in record["error"]
                doomed_names.add(point_doc["name"])

        result = store.result(job_id)
        _surviving_records_match_golden(result, golden_report)
        assert set(result["failures"]) == doomed_names
        for record in result["records"]:
            assert record["failed"] == (record["point"] in doomed_names)
        assert ctrl.injected["crash-point"] > 0

    def test_all_points_doomed_still_terminates(self, tmp_path, monkeypatch, spec):
        store = JobStore(tmp_path)
        job_id = _submit_per_point_chunks(store, spec)
        arm(monkeypatch, ChaosConfig(modes=("crash-point",), seed=0, crash_rate=1.0))
        _drain(store)
        status = store.status(job_id)
        assert status.status == "completed_with_failures"
        assert status.failed == status.total == 3
        _assert_no_hung_leases(store, job_id)
        result = store.result(job_id)
        assert all(r["failed"] for r in result["records"])
        assert len(result["failures"]) == 3


class TestCorruptWriteMode:
    def test_corrupted_tables_rebuilt_and_result_bit_identical(
        self, tmp_path, monkeypatch, spec, golden_report
    ):
        store = JobStore(tmp_path)
        job_id = _submit_per_point_chunks(store, spec)
        ctrl = arm(
            monkeypatch,
            ChaosConfig(modes=("corrupt-write",), seed=0, corrupt_rate=0.5),
        )
        _drain(store, n_workers=2)
        assert ctrl.injected.get("corrupt-write", 0) > 0
        assert store.recoveries > 0  # rebuilt from the journal at least once
        assert store.status(job_id).status == "done"
        _assert_no_hung_leases(store, job_id)
        assert store.result(job_id) == golden_report.to_dict()


class TestDropResponseMode:
    @staticmethod
    def _pick_drop_seed(routes, rate=0.5, budget=5):
        """First seed where every route gets through within the retry
        budget and at least one first attempt is dropped."""
        for seed in range(500):
            ctrl = ChaosController(
                ChaosConfig(modes=("drop-response",), seed=seed, drop_rate=rate)
            )

            def dropped(route, attempt):
                return ctrl._unit("drop-response", f"{route}/{attempt}") < rate

            if all(
                any(not dropped(r, a) for a in range(1, budget + 1)) for r in routes
            ) and any(dropped(r, 1) for r in routes):
                return seed
        pytest.fail("no suitable drop seed in range")

    def test_flaky_http_retries_through(
        self, tmp_path, monkeypatch, spec, golden_report
    ):
        job_id_predicted = spec.job_id()
        routes = (
            "POST /api/jobs",
            f"GET /api/jobs/{job_id_predicted}",
            f"GET /api/jobs/{job_id_predicted}/result",
            "GET /healthz",
        )
        seed = self._pick_drop_seed(routes)
        with CampaignService(tmp_path / "jobs", workers=0) as svc:
            ctrl = arm(
                monkeypatch,
                ChaosConfig(modes=("drop-response",), seed=seed, drop_rate=0.5),
            )
            client = ServiceClient(svc.url, timeout=10.0)
            job_id = client.submit(spec)
            assert job_id == job_id_predicted
            ServiceWorker(svc.store, worker_id="inline").drain()
            assert client.status(job_id)["status"] == "done"
            assert client.result(job_id) == golden_report.to_dict()
            assert client.healthz()["status"] == "ok"
        assert ctrl.injected.get("drop-response", 0) > 0


class TestClockSkewMode:
    def test_skewed_workers_still_converge_bit_identically(
        self, tmp_path, monkeypatch, spec, golden_report
    ):
        store = JobStore(tmp_path, lease_ttl=60.0)
        job_id = _submit_per_point_chunks(store, spec)
        ctrl = arm(
            monkeypatch, ChaosConfig(modes=("clock-skew",), seed=3, skew_s=5.0)
        )
        _drain(store, n_workers=2)
        assert ctrl.injected.get("clock-skew", 0) > 0
        assert store.status(job_id).status == "done"
        _assert_no_hung_leases(store, job_id)
        assert store.result(job_id) == golden_report.to_dict()


class TestCombinedModes:
    def test_full_storm_reaches_a_terminal_state(
        self, tmp_path, monkeypatch, spec, golden_report
    ):
        """Crash + corruption + skew at once: the worst realistic day.

        Whatever the interleaving, the job must land on a terminal
        state with no live leases and bit-identical surviving points.
        """
        store = JobStore(tmp_path)
        job_id = _submit_per_point_chunks(store, spec)
        keys = [p["key"] for p in store.load(job_id)["points"]]
        seed, _doomed = _pick_mixed_crash_seed(keys)
        arm(
            monkeypatch,
            ChaosConfig(
                modes=("crash-point", "corrupt-write", "clock-skew"),
                seed=seed,
                corrupt_rate=0.3,
                skew_s=2.0,
            ),
        )
        _drain(store, n_workers=2)
        status = store.status(job_id)
        assert status.status in TERMINAL_STATES
        _assert_no_hung_leases(store, job_id)
        _surviving_records_match_golden(store.result(job_id), golden_report)


# -- the drive: the whole service stack under each mode --------------------

#: Injection rates of the drive: one seed, each mode biting hard.
_DRIVE = dict(seed=4, crash_rate=0.4, corrupt_rate=0.4, drop_rate=0.3, skew_s=5.0)


@pytest.mark.parametrize(
    "modes",
    [("crash-point",), ("corrupt-write",), ("drop-response",), ("clock-skew",),
     CHAOS_MODES],
    ids=["crash-point", "corrupt-write", "drop-response", "clock-skew", "storm"],
)
def test_service_drive_survives(tmp_path, monkeypatch, spec, golden_report, modes):
    """A real CampaignService, a ServiceClient over HTTP and two workers
    draining the shared store, with faults injected at every layer the
    modes select.  The job must land on a terminal state with every
    chunk resolved and no hung leases, the harness must have injected
    something, and every surviving record must equal the serial one.
    """
    ctrl = arm(monkeypatch, ChaosConfig(modes=modes, **_DRIVE))
    drive_spec = CampaignJobSpec(**{**spec.to_dict(), "chunk_points": 1})
    with CampaignService(tmp_path / "jobs", workers=0) as svc:
        client = ServiceClient(svc.url, timeout=30.0)
        job_id = client.submit(drive_spec)
        _drain(svc.store, n_workers=2)
        status = client.status(job_id)
        board = svc.store.leases(job_id)
        snapshot = board.snapshot()
        result = client.result(job_id)
    assert status["status"] in TERMINAL_STATES
    assert board.all_resolved()
    assert snapshot["leased"] == 0 and snapshot["expired"] == 0
    assert ctrl.injected
    _surviving_records_match_golden(result, golden_report)
    if "crash-point" not in modes:
        assert result == golden_report.to_dict()
