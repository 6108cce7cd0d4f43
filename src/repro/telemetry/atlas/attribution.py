"""Contention blame and capacity-headroom math over the fabric tables.

Everything here is pure dict/float computation over the per-link
accounting (:class:`~repro.rack.interconnect.LinkTable`) and the VNI
registry — no clocks, no randomness — so attribution reports are
deterministic and can be recomputed offline from an atlas snapshot.

Two questions, two answers:

* **Blame** — "who owns the congestion?"  Per link, each tenant's share
  of the bytes moved during saturated windows; per tenant, a culprit-
  weighted assignment of the rack's total queueing delay (each link's
  victims' delay is charged to tenants by their saturated-byte share on
  that link).
* **Headroom** — "how long until it's full?"  Per link and per node
  port: current windowed rate vs capacity, and time-to-saturation under
  the current rate slope.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ...rack.interconnect import Interconnect, link_endpoints


def link_blame(fabric: Interconnect) -> List[dict]:
    """Per-link saturated-byte shares, tenant-labelled, links sorted.

    Only links that ever completed a saturated window appear — a link
    with headroom has nobody to blame.
    """
    rows: List[dict] = []
    table = fabric.links
    for link in table.links():
        s = table.get(link)
        if s is None or s.saturated_bytes <= 0:
            continue
        shares = table.saturated_share(link)
        rows.append({
            "link": link,
            "saturated_bytes": s.saturated_bytes,
            "saturated_windows": s.saturated_windows,
            "tenants": [
                {
                    "tenant": fabric.vnis.label_of(vni),
                    "vni": vni,
                    "saturated_bytes": s.vni_saturated_bytes.get(vni, 0),
                    "share": round(share, 6),
                }
                for vni, share in sorted(shares.items())
            ],
        })
    return rows


def tenant_blame(
    fabric: Interconnect,
    queue_delay_ns: Optional[Dict[str, float]] = None,
) -> List[dict]:
    """Per-tenant contention summary: saturated bytes owned across all
    links, share on the bottleneck link, queueing delay suffered, and
    queueing delay *blamed* (the rack's total delay assigned by
    bottleneck saturated-share — the culprit view of the same ns).
    """
    delays = queue_delay_ns or {}
    bottleneck = fabric.links.bottleneck()
    bn_shares: Dict[int, float] = (
        fabric.links.saturated_share(bottleneck) if bottleneck else {}
    )
    total_delay = sum(delays.values())

    per_tenant: Dict[str, dict] = {}
    for link in fabric.links.links():
        s = fabric.links.get(link)
        for vni, sat in sorted(s.vni_saturated_bytes.items()):
            name = fabric.vnis.label_of(vni)
            row = per_tenant.setdefault(
                name, {"tenant": name, "vni": vni, "saturated_bytes": 0}
            )
            row["saturated_bytes"] += sat
    # tenants that suffered delay but never saturated anything still report
    for name in delays:
        per_tenant.setdefault(
            name, {"tenant": name, "vni": None, "saturated_bytes": 0}
        )

    rows = []
    for name in sorted(per_tenant):
        row = per_tenant[name]
        vni = row["vni"]
        share = bn_shares.get(vni, 0.0) if vni is not None else 0.0
        rows.append({
            "tenant": name,
            "vni": vni,
            "saturated_bytes": row["saturated_bytes"],
            "bottleneck_share": round(share, 6),
            "queue_delay_ns": round(delays.get(name, 0.0), 3),
            "queue_blame_ns": round(share * total_delay, 3),
        })
    return rows


def link_headroom(
    fabric: Interconnect, now_ns: Optional[float] = None
) -> List[dict]:
    """Per-link capacity headroom, links sorted by id."""
    rows: List[dict] = []
    table = fabric.links
    for link in table.links():
        s = table.get(link)
        cap = s.capacity_bytes_per_s
        rate = table.rate_bytes_per_s(link, now_ns)
        tts = table.time_to_saturation_s(link, now_ns)
        rows.append({
            "link": link,
            "capacity_bytes_per_s": None if cap == float("inf") else cap,
            "rate_bytes_per_s": round(rate, 3),
            "utilisation": round(table.utilisation(link, now_ns), 6),
            "headroom_bytes_per_s": (
                None if cap == float("inf") else round(max(0.0, cap - rate), 3)
            ),
            "time_to_saturation_s": None if tts is None else round(tts, 6),
            "down": bool(s.downs) and not fabric.link_is_up(*link_endpoints(link)),
        })
    return rows


def node_headroom(
    fabric: Interconnect, now_ns: Optional[float] = None
) -> List[dict]:
    """Per-node-port headroom: each node's view is its first routed link
    (the port it drains through), so a saturated port pins the node."""
    rows: List[dict] = []
    nodes = sorted(int(v.split(":")[1]) for v in fabric.graph.vertices("node"))
    for node_id in nodes:
        try:
            route = fabric.path_links(node_id)
        except Exception:
            rows.append({
                "node": node_id, "port": None, "utilisation": None,
                "rate_bytes_per_s": 0.0, "time_to_saturation_s": None,
                "reachable": False,
            })
            continue
        port = route[0] if route else None
        util = fabric.links.utilisation(port, now_ns) if port else 0.0
        tts = fabric.links.time_to_saturation_s(port, now_ns) if port else None
        rows.append({
            "node": node_id,
            "port": port,
            "utilisation": round(util, 6),
            "rate_bytes_per_s": round(
                fabric.links.rate_bytes_per_s(port, now_ns) if port else 0.0, 3
            ),
            "time_to_saturation_s": None if tts is None else round(tts, 6),
            "reachable": True,
        })
    return rows


__all__ = [
    "link_blame",
    "tenant_blame",
    "link_headroom",
    "node_headroom",
]
