"""Terminal panels over one atlas snapshot dict.

Pure dict-walking (the snapshot may have been loaded from JSON), same
``_Grid`` look as the dashboard, so these panels drop straight into
``render_dashboard`` and the CLI.
"""

from __future__ import annotations

from typing import Optional

from ..dashboard import _fmt, _Grid, _pct
from .attribution import node_ports, saturated_links, tenant_ledger


def _rate(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 1e9:
        return f"{value / 1e9:.2f} GB/s"
    if value >= 1e6:
        return f"{value / 1e6:.2f} MB/s"
    return f"{value:,.0f} B/s"


def _tts(row: dict) -> str:
    tts = row["time_to_saturation_s"]
    return "-" if tts is None else f"{tts:.3f}"


def render_links(snap: dict, n: Optional[int] = None) -> str:
    """Per-link utilisation panel, busiest first."""
    rows = sorted(snap["links"], key=lambda r: (-r["bytes"], r["link"]))
    if n is not None:
        rows = rows[:n]
    grid = _Grid(
        "fabric links",
        ["link", "bytes", "rate", "capacity", "util", "sat windows", "downs"],
    )
    for row in rows:
        grid.add(
            row["link"],
            _fmt(row["bytes"]),
            _rate(row["rate_bytes_per_s"]),
            _rate(row["capacity_bytes_per_s"]),
            _pct(row["utilisation"]),
            _fmt(row["saturated_windows"]),
            _fmt(len(row["downs"])),
        )
    return grid.render()


def render_pages(snap: dict, n: Optional[int] = 16) -> str:
    """Hot-page top-k panel, heaviest first, with the coverage floor."""
    sketch = snap["sketch"]
    grid = _Grid(
        f"hot pages (top-{sketch['page_k']}, "
        f"coverage >= {_pct(sketch['page_coverage'])})",
        ["page", "bytes", "error"],
    )
    for row in snap["pages"][:n]:
        grid.add(row["addr"], _fmt(row["bytes"]), _fmt(row["error"]))
    return grid.render()


def render_blame(snap: dict) -> str:
    """Contention blame: per-link saturated shares + per-tenant ledger."""
    link_grid = _Grid(
        "saturated-link blame",
        ["link", "sat bytes", "tenant", "share"],
    )
    for row in saturated_links(snap):
        for t in row["tenants"]:
            link_grid.add(
                row["link"], _fmt(row["saturated_bytes"]), t["tenant"], _pct(t["share"])
            )
    tenant_grid = _Grid(
        "per-tenant contention",
        ["tenant", "sat bytes", "bottleneck share",
         "queue delay (ms)", "queue blame (ms)"],
    )
    for row in tenant_ledger(snap):
        tenant_grid.add(
            row["tenant"],
            _fmt(row["saturated_bytes"]),
            _pct(row["bottleneck_share"]),
            f"{row['queue_delay_ns'] / 1e6:.3f}",
            f"{row['queue_blame_ns'] / 1e6:.3f}",
        )
    return f"{link_grid.render()}\n\n{tenant_grid.render()}"


def render_headroom(snap: dict) -> str:
    """Capacity headroom: per link and per node port."""
    link_grid = _Grid(
        "link headroom",
        ["link", "rate", "capacity", "util", "headroom", "t-to-sat (s)"],
    )
    for row in snap["links"]:
        cap, rate = row["capacity_bytes_per_s"], row["rate_bytes_per_s"]
        link_grid.add(
            row["link"],
            _rate(rate),
            _rate(cap),
            _pct(row["utilisation"]),
            _rate(None if cap is None else max(0.0, cap - rate)),
            _tts(row),
        )
    node_grid = _Grid(
        "node-port headroom",
        ["node", "port", "util", "rate", "t-to-sat (s)"],
    )
    for node, row in node_ports(snap):
        if row is None:
            node_grid.add(f"node{node['node']}", "SEVERED", "-", "-", "-")
            continue
        node_grid.add(
            f"node{node['node']}",
            node["port"],
            _pct(row["utilisation"]),
            _rate(row["rate_bytes_per_s"]),
            _tts(row),
        )
    return f"{link_grid.render()}\n\n{node_grid.render()}"


def render_atlas(snap: dict) -> str:
    """The full atlas block (dashboard integration point)."""
    parts = [render_links(snap), render_pages(snap)]
    if tenant_ledger(snap):
        parts.append(render_blame(snap))
    if snap["nodes"]:  # a fabric to report on
        parts.append(render_headroom(snap))
    return "\n\n".join(parts)
