"""Campaign service: persistent jobs, leased chunks, multi-worker drain.

This package turns fault campaigns into durable *jobs* that any number
of workers drain cooperatively (DESIGN.md §12):

* :mod:`~repro.service.jobs` — the on-disk :class:`JobStore`
  (content-hash job ids, state machine, finalization) and the
  :class:`CampaignJobSpec` that deterministically reconstructs a grid;
* :mod:`~repro.service.scheduler` — TTL chunk leases with work
  stealing (:class:`LeaseBoard`);
* :mod:`~repro.service.worker` — the draining loop
  (:class:`ServiceWorker`, ``repro worker``);
* :mod:`~repro.service.server` — the stdlib HTTP API + worker fleet
  (:class:`CampaignService`, ``repro serve``);
* :mod:`~repro.service.client` — the urllib client
  (:class:`ServiceClient`, ``repro submit`` / ``repro jobs``).

The invariant everything here leans on: grid points are
derivation-seeded and content-hash keyed, so a service-drained campaign
is **bit-identical** to a serial one no matter how work is split,
stolen, or re-run.
"""

from repro.service.client import ServiceClient
from repro.service.jobs import CampaignJobSpec, JobStatus, JobStore
from repro.service.scheduler import Lease, LeaseBoard
from repro.service.server import CampaignService
from repro.service.worker import ServiceWorker, worker_main

__all__ = [
    "CampaignJobSpec",
    "CampaignService",
    "JobStatus",
    "JobStore",
    "Lease",
    "LeaseBoard",
    "ServiceClient",
    "ServiceWorker",
    "worker_main",
]
