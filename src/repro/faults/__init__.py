"""Resilience tooling: transient fault injection and campaigns.

* :class:`FaultInjector` / :class:`FaultSpec` — deterministic
  single-bit flips at named microarchitectural sites (register lanes,
  PE results, cache lines, ROB entries, register-file writes).
* :func:`run_campaign` — seed-driven injection campaign classifying
  every flip as masked / sdc / detected / hang / timed_out against the
  functional ISS.

The liveness side (hang watchdogs, :class:`SimulationHang`) lives in
:mod:`repro.core.watchdog` because the engines raise it; it is
re-exported here since campaigns consume it.
"""

from repro.core.watchdog import SimulationHang
from repro.faults.campaign import (
    OUTCOMES,
    CampaignError,
    CampaignReport,
    TrialResult,
    plan_campaign,
    run_campaign,
)
from repro.faults.injector import (
    ALL_SITES,
    FaultInjector,
    FaultSpec,
    InjectionEvent,
)

__all__ = [
    "ALL_SITES",
    "CampaignError",
    "CampaignReport",
    "FaultInjector",
    "FaultSpec",
    "InjectionEvent",
    "OUTCOMES",
    "SimulationHang",
    "TrialResult",
    "plan_campaign",
    "run_campaign",
]
