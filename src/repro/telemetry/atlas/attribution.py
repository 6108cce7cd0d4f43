"""Contention blame and capacity headroom: views over one atlas snapshot.

Every view is pure dict walking over :meth:`Atlas.snapshot`'s ``links``
rows (:meth:`~repro.rack.interconnect.Interconnect.link_rows`, where each
per-link fact is computed once), ``nodes`` and ``queue_delay_ns`` — so the
CLI, the dashboard and an offline reader of an exported run see one answer.

Two questions, two answers:

* **Blame** — "who owns the congestion?"  Per link, each tenant's share
  of the bytes moved during saturated windows; per tenant, a culprit-
  weighted assignment of the rack's total queueing delay (charged to
  tenants by their saturated-byte share on the bottleneck link).
* **Headroom** — "how long until it's full?"  The link rows themselves
  (rate against capacity, time to saturation), and per node the row of
  the port it drains through.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

#: a port no traffic has crossed yet: no row, so nothing to report but idle
_IDLE = {"utilisation": 0.0, "rate_bytes_per_s": 0.0, "time_to_saturation_s": None}


def saturated_links(snap: dict) -> List[dict]:
    """Link blame: the rows that completed a saturated window, each with
    only the tenants that moved bytes in one — a link with headroom has
    nobody to blame."""
    return [
        dict(row, tenants=[t for t in row["tenants"] if t["saturated_bytes"] > 0])
        for row in snap["links"] if row["saturated_bytes"] > 0
    ]


def tenant_ledger(snap: dict) -> List[dict]:
    """Per-tenant contention, by tenant: saturated bytes owned across all
    links, share on the bottleneck link (the most saturated bytes, the
    first by id on a tie), queueing delay suffered, and queueing delay
    *blamed* — the rack's total delay assigned by bottleneck share, the
    culprit view of the same ns.  A tenant that only suffered delay
    reports too."""
    blamed = saturated_links(snap)
    delays = snap["queue_delay_ns"]
    bottleneck = max(blamed, key=lambda row: row["saturated_bytes"], default=None)
    shares = {} if bottleneck is None else {
        t["tenant"]: t["share"] for t in bottleneck["tenants"]
    }
    total_delay = sum(delays.values())
    owned = dict.fromkeys(delays, 0)
    for row in blamed:
        for t in row["tenants"]:
            owned[t["tenant"]] = owned.get(t["tenant"], 0) + t["saturated_bytes"]
    return [
        {
            "tenant": name,
            "saturated_bytes": owned[name],
            "bottleneck_share": shares.get(name, 0.0),
            "queue_delay_ns": delays.get(name, 0.0),
            "queue_blame_ns": round(shares.get(name, 0.0) * total_delay, 3),
        }
        for name in sorted(owned)
    ]


def node_ports(snap: dict) -> List[Tuple[dict, Optional[dict]]]:
    """Node headroom: each node row joined by ``port`` to its link row —
    ``None`` for a severed node — so a saturated port pins the node."""
    rows = {row["link"]: row for row in snap["links"]}
    return [
        (node, None if node["port"] is None else rows.get(node["port"], _IDLE))
        for node in snap["nodes"]
    ]
