"""Graceful-degradation policy bundle.

Injected faults are only half the story — the interesting question is
how much of the damage the *controller* can absorb.  The repo has two
degradation levers, each living in the subsystem it protects:

* **Dead-device gradient masking**
  (:attr:`repro.tuning.online.TuningConfig.mask_dead_devices`): tuning
  stops wasting constant-amplitude pulses (and their aging stress) on
  devices whose window has collapsed, and stops letting an untunable
  weight's gradient anchor the per-layer pulse threshold.
* **Fault-aware range selection**
  (:class:`repro.mapping.aging_aware.AgingAwareMapper` with
  ``fault_aware=True``): traced bounds of stuck/dead devices are
  excluded from common-range candidates so a handful of welded cells
  cannot compress every healthy device into a few levels.

:class:`DegradationPolicy` bundles the switches so campaigns can toggle
recovery as one axis of the fault grid.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DegradationPolicy:
    """Which graceful-degradation mechanisms are active."""

    mask_dead_devices: bool = True
    fault_aware_mapping: bool = True

    @classmethod
    def enabled(cls) -> "DegradationPolicy":
        """All mechanisms on (the campaign default)."""
        return cls()

    @classmethod
    def disabled(cls) -> "DegradationPolicy":
        """All mechanisms off — the ablation baseline."""
        return cls(mask_dead_devices=False, fault_aware_mapping=False)

    @property
    def any_enabled(self) -> bool:
        return self.mask_dead_devices or self.fault_aware_mapping
