"""Terminal panels over one atlas snapshot dict.

Pure dict-walking (the snapshot may have been loaded from JSON), same
``_Grid`` look as the dashboard, so these panels drop straight into
``render_dashboard`` and the CLI.
"""

from __future__ import annotations

from typing import Optional

from ..dashboard import _fmt, _Grid, _pct


def _rate(value: float) -> str:
    if value >= 1e9:
        return f"{value / 1e9:.2f} GB/s"
    if value >= 1e6:
        return f"{value / 1e6:.2f} MB/s"
    return f"{value:,.0f} B/s"


def render_links(snap: dict, n: Optional[int] = None) -> str:
    """Per-link traffic panel, busiest first."""
    rows = sorted(snap["links"], key=lambda r: (-r["bytes"], r["link"]))
    if n is not None:
        rows = rows[:n]
    grid = _Grid("fabric links", ["link", "bytes", "rate", "downs"])
    for row in rows:
        grid.add(row["link"], _fmt(row["bytes"]), _rate(row["rate_bytes_per_s"]),
                 _fmt(len(row["downs"])))
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


def render_atlas(snap: dict) -> str:
    """The full atlas block (dashboard integration point)."""
    return f"{render_links(snap)}\n\n{render_pages(snap)}"
