"""Shared fixtures for the campaign service tests.

One tiny three-point campaign spec (blobs-mini fast, a single fault
rate) is reused everywhere, with its serial golden report computed once
per session — every service test asserts bit-identity against it.
"""

from __future__ import annotations

import pytest

from repro.service import CampaignJobSpec


@pytest.fixture(scope="session")
def spec() -> CampaignJobSpec:
    return CampaignJobSpec(
        preset="blobs-mini", fast=True, kinds=("stuck_at",), rates=(0.01,)
    )


@pytest.fixture(scope="session")
def golden_report(spec):
    """Serial FaultCampaign over the same spec: the bit-identity anchor."""
    return spec.build_campaign(workers=1).run(spec.build_points())
