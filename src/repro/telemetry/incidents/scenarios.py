"""The incident scenario catalogue: seeded chaos campaigns, scorable.

Each :class:`IncidentScenario` is a frozen value — a named chaos
campaign with its tenants, horizon, and availability target — so the
suite is a table the runner, CLI, benchmark, and tests all read.  Every
scenario follows the same dramaturgy:

1. an *early, health-detectable* signal (UE storm, CE trend, link
   flaps) that gives the detection stack something to fire on — this
   anchors MTTD;
2. a *late node crash* landing while traffic is back on the primary —
   the detection-on arm (machine crash hook wired into the breakers)
   fails over before losing a batch, while the detection-off arm must
   burn a full retry ladder on inline evidence and loses the in-flight
   batch.  This is the mechanism that makes detection-on strictly
   dominate detection-off on MTTM, per scenario, deterministically.

The crash is always placed more than one breaker cooldown (5 ms) after
the last recovery event so the off arm's breaker has re-closed (probe
succeeded) and traffic has returned to the primary before the crash
lands — otherwise the off arm would coast through the crash on the
replica and the arms would tie.

Memory-fault targets are pinned to the top pages of global memory, far
above the tenants' key slabs, so a poisoned page is never on a traffic
batch's data path: the scenario measures the *ops loop*, not a poisoned
read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Tuple

from ...chaos.schedule import ChaosCampaign, event
from ...rack.params import GLOBAL_BASE
from ...workloads.traffic import TenantSpec
from .. import ADMITTED_SERIES, LOST_SERIES, tenant_subsystem
from ..health.slo import Objective

_PAGE = 4096

#: global-memory size the runner boots rigs with (build_rig default)
GLOBAL_MEM = 1 << 26


def spare_pages(count: int, lane: int = 0) -> Tuple[int, ...]:
    """``count`` page addresses at the top of global memory.

    ``lane`` offsets each scenario into its own block of pages so two
    scenarios' ground-truth sites never collide in tests.
    """
    top = GLOBAL_BASE + GLOBAL_MEM
    base = top - (lane + 1) * 64 * _PAGE
    return tuple(base + i * _PAGE for i in range(count))


def availability_objective(tenant: str, target: float = 0.999) -> Objective:
    """Per-tenant availability SLO: admitted vs lost-by-the-request-path.

    :data:`~repro.telemetry.LOST_SERIES` aggregates every loss class
    (failed, timed out, shed); admission-policy drops are not failures and
    stay out.  The burn thresholds fire within one window of a lost batch
    (a whole batch lost in one window burns hundreds of budgets) and
    resolve after six calm windows.
    """
    return Objective(
        name=f"availability.{tenant}",
        kind="ratio",
        subsystem=tenant_subsystem(tenant),
        good=ADMITTED_SERIES,
        bad=LOST_SERIES,
        target=target,
        fast_windows=1,
        slow_windows=6,
        fast_burn=6.0,
        slow_burn=1.0,
    )


@dataclass(frozen=True)
class IncidentScenario:
    """One replayable, scorable incident."""

    name: str
    description: str
    campaign: ChaosCampaign
    tenants: Tuple[TenantSpec, ...]
    horizon_ns: float
    #: the same for every scenario: class attributes, not fields
    availability_target = 0.999
    n_nodes = 2
    window_ns = 250_000.0
    replica_node = 1


def _tenants() -> Tuple[TenantSpec, ...]:
    return (
        TenantSpec(name="web", rate_rps=120_000.0, node=0, n_keys=256,
                   get_ratio=0.9, max_backlog_ns=5e6),
        TenantSpec(name="api", rate_rps=80_000.0, node=0, n_keys=256,
                   get_ratio=0.7, max_backlog_ns=5e6),
    )


def _scenario_ue_storm() -> IncidentScenario:
    pages = spare_pages(8, lane=0)
    return IncidentScenario(
        name="ue-storm",
        description="two UE bursts on spare global pages, then the primary "
                    "crashes; ue.rate must page and the predictor must "
                    "evacuate the poisoned pages before the crash",
        campaign=ChaosCampaign(
            name="ue-storm", seed=101,
            events=(
                event("ue_storm", at_ns=6e6, count=8, targets=pages),
                event("ue_storm", at_ns=8e6, count=8, targets=pages),
                event("node_crash", at_ns=14e6, node=0),
                event("node_restart", at_ns=24e6, node=0),
            ),
        ),
        tenants=_tenants(),
        horizon_ns=30e6,
    )


def _scenario_link_flap() -> IncidentScenario:
    return IncidentScenario(
        name="link-flap",
        description="the primary's fabric port flaps twice, recovers, then "
                    "the node crashes outright; availability burn must fire "
                    "on the flap losses and blame the primary",
        campaign=ChaosCampaign(
            name="link-flap", seed=202,
            events=(
                event("link_down", at_ns=4e6, node=0),
                event("link_up", at_ns=6e6, node=0),
                event("link_down", at_ns=8e6, node=0),
                event("link_up", at_ns=10e6, node=0),
                event("node_crash", at_ns=17e6, node=0),
                event("node_restart", at_ns=26e6, node=0),
            ),
        ),
        tenants=_tenants(),
        horizon_ns=34e6,
    )


def _scenario_crash_cascade() -> IncidentScenario:
    pages = spare_pages(8, lane=1)
    return IncidentScenario(
        name="crash-cascade",
        description="a CE burst on the primary foreshadows two crashes in "
                    "a row; the second lands after the breaker has re-closed",
        campaign=ChaosCampaign(
            name="crash-cascade", seed=303,
            events=(
                event("ce_storm", at_ns=2e6, count=16, node=0, targets=pages),
                event("node_crash", at_ns=5e6, node=0),
                event("node_restart", at_ns=12e6, node=0),
                event("node_crash", at_ns=18e6, node=0),
                event("node_restart", at_ns=26e6, node=0),
            ),
        ),
        tenants=_tenants(),
        horizon_ns=32e6,
    )


def _scenario_ce_slow_leak() -> IncidentScenario:
    pages = spare_pages(4, lane=2)
    return IncidentScenario(
        name="ce-slow-leak",
        description="repeated small CE bursts on the same pages — below the "
                    "fast-burn bar alone, over it as a trend — then the "
                    "primary crashes; ce.rate must fire on the accumulation",
        campaign=ChaosCampaign(
            name="ce-slow-leak", seed=404,
            events=(
                event("ce_storm", at_ns=3.0e6, count=8, node=0, targets=pages),
                event("ce_storm", at_ns=3.5e6, count=8, node=0, targets=pages),
                event("ce_storm", at_ns=4.0e6, count=8, node=0, targets=pages),
                event("ce_storm", at_ns=4.5e6, count=8, node=0, targets=pages),
                event("ce_storm", at_ns=5.0e6, count=8, node=0, targets=pages),
                event("node_crash", at_ns=15e6, node=0),
                event("node_restart", at_ns=24e6, node=0),
            ),
        ),
        tenants=_tenants(),
        horizon_ns=30e6,
    )


def _scenario_breaker_storm() -> IncidentScenario:
    return IncidentScenario(
        name="breaker-storm",
        description="three rapid link flaps churn the breakers through "
                    "open/half-open/closed, then the primary crashes; the "
                    "flight recorder must capture the transition storm",
        campaign=ChaosCampaign(
            name="breaker-storm", seed=505,
            events=(
                event("link_down", at_ns=3e6, node=0),
                event("link_up", at_ns=4e6, node=0),
                event("link_down", at_ns=5e6, node=0),
                event("link_up", at_ns=6e6, node=0),
                event("link_down", at_ns=7e6, node=0),
                event("link_up", at_ns=8e6, node=0),
                event("node_crash", at_ns=15e6, node=0),
                event("node_restart", at_ns=24e6, node=0),
            ),
        ),
        tenants=_tenants(),
        horizon_ns=32e6,
    )


@functools.lru_cache(maxsize=None)
def _catalogue() -> Tuple[IncidentScenario, ...]:
    """The five frozen scenarios, built once per process on first use."""
    return (
        _scenario_ue_storm(),
        _scenario_link_flap(),
        _scenario_crash_cascade(),
        _scenario_ce_slow_leak(),
        _scenario_breaker_storm(),
    )


def scenarios() -> Dict[str, IncidentScenario]:
    """Name -> scenario, in catalogue order: a fresh dict of the values
    :func:`_catalogue` built once."""
    return {s.name: s for s in _catalogue()}


def get_scenario(name: str) -> IncidentScenario:
    table = scenarios()
    if name not in table:
        raise KeyError(
            f"unknown incident scenario {name!r}; know {sorted(table)}"
        )
    return table[name]
