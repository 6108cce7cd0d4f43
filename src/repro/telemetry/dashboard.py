"""Latency-breakdown dashboard: a terminal snapshot of one exported run.

Renders the headline health panel the paper's evaluation reads off —
per-node cache hit ratio, TLB activity (hits/misses/shootdowns),
page-cache hit ratio, RPC latency p50/p99, CE/UE/repair counts — then a
per-subsystem breakdown of every other metric, and (when the run was
traced) the flamegraph-style hottest-paths summary.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from . import TENANT_PREFIX
from .health import recorder as rec
from .health.slo import scope_label
from .registry import MetricsRegistry, merged_histogram, rate


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "-"
    if abs(value - round(value)) < 1e-9 and abs(value) < 1e15:
        return f"{int(round(value)):,}"
    return f"{value:,.2f}"


def _pct(value: float) -> str:
    return "-" if value != value else f"{value * 100:.1f}%"


class _Grid:
    """Fixed-width table (same look as the bench harness tables)."""

    def __init__(self, title: str, columns: List[str]) -> None:
        self.title = title
        self.columns = columns
        self.rows: List[List[str]] = []

    def add(self, *cells) -> None:
        self.rows.append([str(c) for c in cells])

    def render(self) -> str:
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in self.rows))
            if self.rows
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        out = [f"-- {self.title} --"]
        out.append("  ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        if not self.rows:
            # an empty panel still renders: header plus an em-dash row,
            # so "no data" is visible rather than a vanished table
            out.append("  ".join("—".ljust(w) for w in widths))
        for row in self.rows:
            out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(out)


def _per_node(reg: MetricsRegistry, subsystem: str, name: str) -> Dict[int, float]:
    return {
        n: v
        for (n, s, m), v in reg.counters.items()
        if s == subsystem and m == name
    }


def render_headline(reg: MetricsRegistry) -> str:
    """The acceptance panel: one row per node, the load-bearing ratios."""
    cache_hits = _per_node(reg, "rack.machine", "cache.hit")
    cache_misses = _per_node(reg, "rack.machine", "cache.miss")
    tlb_hits = _per_node(reg, "core.memory", "tlb.hit")
    tlb_misses = _per_node(reg, "core.memory", "tlb.miss")
    shootdowns = _per_node(reg, "core.memory", "tlb.shootdown.served")
    pc_hits = _per_node(reg, "core.fs", "page_cache.hit")
    pc_misses = _per_node(reg, "core.fs", "page_cache.miss")
    nodes = sorted(
        set(cache_hits) | set(cache_misses) | set(tlb_hits) | set(tlb_misses)
        | set(shootdowns) | set(pc_hits) | set(pc_misses)
    )
    grid = _Grid(
        "per-node health",
        ["node", "cache hit%", "tlb hit%", "tlb shootdowns", "pgcache hit%", "rpc p50/p99 (ns)"],
    )
    for node in nodes:
        rpc = reg.histogram(node, "core.ipc", "rpc.migration_ns")
        rpc_cell = (
            f"{_fmt(rpc.percentile(0.5))} / {_fmt(rpc.percentile(0.99))}"
            if rpc is not None and rpc.count
            else "-"
        )
        grid.add(
            scope_label(node),
            _pct(rate(cache_hits.get(node, 0.0), cache_misses.get(node, 0.0))
                 if (node in cache_hits or node in cache_misses) else float("nan")),
            _pct(rate(tlb_hits.get(node, 0.0), tlb_misses.get(node, 0.0))
                 if (node in tlb_hits or node in tlb_misses) else float("nan")),
            _fmt(shootdowns.get(node, 0.0)),
            _pct(rate(pc_hits.get(node, 0.0), pc_misses.get(node, 0.0))
                 if (node in pc_hits or node in pc_misses) else float("nan")),
            rpc_cell,
        )
    lines = [grid.render()] if nodes else []

    # rack-wide reliability summary
    ce = reg.counter_total("reliability", "fault.ce")
    ue = reg.counter_total("reliability", "fault.ue")
    repairs = reg.counter_total("reliability", "repair.ok")
    failed = reg.counter_total("reliability", "repair.fail")
    rel = _Grid("reliability", ["CE", "UE", "repairs ok", "repairs failed"])
    rel.add(_fmt(ce), _fmt(ue), _fmt(repairs), _fmt(failed))
    lines.append(rel.render())

    rpc_all = merged_histogram(reg.histograms, "core.ipc", "rpc.migration_ns")
    zc_all = merged_histogram(reg.histograms, "core.ipc", "ipc.zero_copy_send_ns")
    if rpc_all or zc_all:
        ipc = _Grid("ipc latency (simulated ns)",
                    ["path", "count", "mean", "p50", "p99", "max"])
        for label, h in (("rpc (migration)", rpc_all), ("socket (zero-copy)", zc_all)):
            if h is None or not h.count:
                continue
            ipc.add(label, _fmt(h.count), _fmt(h.mean),
                    _fmt(h.percentile(0.5)), _fmt(h.percentile(0.99)),
                    _fmt(h.max_value))
        lines.append(ipc.render())
    return "\n\n".join(lines)


def render_tenants(reg: MetricsRegistry) -> str:
    """Per-tenant traffic breakout: request/drop counts and latency
    percentiles from the tenant-scoped ``traffic/<name>`` subsystems."""
    tenants = reg.tenants(TENANT_PREFIX)
    if not tenants:
        return ""
    grid = _Grid(
        "per-tenant traffic",
        ["tenant", "requests", "admitted", "dropped (backlog/link)",
         "bytes", "lat p50 (ns)", "lat p99 (ns)"],
    )
    for tenant in tenants:
        sub = TENANT_PREFIX + tenant
        requests = reg.counter_total(sub, "requests")
        admitted = reg.counter_total(sub, "admitted")
        d_backlog = reg.counter_total(sub, "dropped.backlog")
        d_link = reg.counter_total(sub, "dropped.link")
        n_bytes = reg.counter_total(sub, "bytes")
        lat = merged_histogram(reg.histograms, sub, "latency_ns")
        grid.add(
            tenant,
            _fmt(requests),
            _fmt(admitted),
            f"{_fmt(d_backlog + d_link)} ({_fmt(d_backlog)}/{_fmt(d_link)})",
            _fmt(n_bytes),
            _fmt(lat.percentile(0.5)) if lat and lat.count else "-",
            _fmt(lat.percentile(0.99)) if lat and lat.count else "-",
        )
    return grid.render()


def render_resilience(reg: MetricsRegistry) -> str:
    """Per-tenant fault-tolerance breakout: retries, failovers, breaker
    trips and lost requests from the ``traffic/<name>`` subsystems.
    Empty when no tenant recorded any resilience activity."""
    tenants = reg.tenants(TENANT_PREFIX)
    if not tenants:
        return ""
    rows = []
    for tenant in tenants:
        sub = TENANT_PREFIX + tenant
        cells = {
            name: reg.counter_total(sub, "resilience." + name)
            for name in ("retries", "failovers", "failed", "shed", "breaker_opens")
        }
        if any(cells.values()):
            rows.append((tenant, cells))
    if not rows:
        return ""
    grid = _Grid(
        "per-tenant resilience",
        ["tenant", "retries", "failovers", "failed", "shed", "breaker opens"],
    )
    for tenant, c in rows:
        grid.add(
            tenant,
            _fmt(c["retries"]),
            _fmt(c["failovers"]),
            _fmt(c["failed"]),
            _fmt(c["shed"]),
            _fmt(c["breaker_opens"]),
        )
    return grid.render()


def render_subsystems(reg: MetricsRegistry) -> str:
    """Every metric, grouped by subsystem, nodes as columns."""
    sections = []
    for subsystem in reg.subsystems():
        names: Dict[Tuple[str, str], Dict[int, str]] = {}
        for (node, s, name), v in sorted(reg.counters.items()):
            if s == subsystem:
                names.setdefault(("counter", name), {})[node] = _fmt(v)
        for (node, s, name), v in sorted(reg.gauges.items()):
            if s == subsystem:
                names.setdefault(("gauge", name), {})[node] = _fmt(v)
        for (node, s, name), h in sorted(reg.histograms.items()):
            if s == subsystem:
                names.setdefault(("histogram", name), {})[node] = (
                    f"n={h.count} p50={_fmt(h.percentile(0.5))} p99={_fmt(h.percentile(0.99))}"
                )
        if not names:
            continue
        nodes = sorted({n for cells in names.values() for n in cells})
        grid = _Grid(subsystem, ["metric", "kind"] + [scope_label(n) for n in nodes])
        for (kind, name), cells in sorted(names.items(), key=lambda kv: kv[0][1]):
            grid.add(name, kind, *[cells.get(n, "-") for n in nodes])
        sections.append(grid.render())
    return "\n\n".join(sections) if sections else "(no metrics recorded)"


#: fault kinds the incident timeline marks as injections
_INJECTIONS = ("ue", "ce", "link_down", "node_crash", "node_restart")


def render_incident_timeline(dump: dict, score: Optional[dict] = None) -> str:
    """Per-incident timeline panel over one flight-recorder dump.

    One chronological table — injection marks, alert fire/resolve,
    breaker transitions, predictor boosts — with the recovery point
    (injection + MTTM) appended when a score card is supplied.  Reads only
    the dump, so it renders loaded dumps offline.
    """
    rows: List[Tuple[float, int, str, str]] = []
    for event in rec.dump_events(dump):
        row = event.fields
        if event.kind == rec.FAULT and row["kind"] in _INJECTIONS:
            rows.append((event.t_ns, 0, f"INJECT {row['kind']}",
                         f"[{scope_label(event.node)}] {row.get('detail') or ''}".rstrip()))
        elif event.kind == rec.ALERT_FIRED:
            rows.append((event.t_ns, 1, "ALERT fired",
                         f"{row['objective']} [{scope_label(event.node)}]"))
        elif event.kind == rec.ALERT_RESOLVED:
            rows.append((event.t_ns, 2, "ALERT resolved",
                         f"{row['objective']} [{scope_label(event.node)}]"))
        elif event.kind == rec.BREAKER:
            rows.append((event.t_ns, 3, f"BREAKER {row['from']}->{row['to']}",
                         f"{row['tenant']}@node{row['target']} reason={row['reason']}"))
        elif event.kind == rec.BOOST:
            pages = ",".join(f"{p:#x}" for p in row.get("pages", []))
            rows.append((event.t_ns, 4, "BOOST", f"cause={row['cause']} pages={pages}"))
    if score is not None and score.get("t0_ns") is not None:
        t0 = score["t0_ns"]
        if score.get("mttd_ns") is not None:
            rows.append((t0 + score["mttd_ns"], 5, "DETECTED",
                         f"MTTD={score['mttd_ns'] / 1e6:.3f}ms"))
        if score.get("mttm_ns") is not None:
            rows.append((t0 + score["mttm_ns"], 6, "RECOVERED",
                         f"MTTM={score['mttm_ns'] / 1e6:.3f}ms "
                         f"target={score['availability_target']}"))
    rows.sort()
    grid = _Grid(
        f"incident timeline — {dump.get('reason', '?')}",
        ["t (us)", "event", "detail"],
    )
    for t_ns, _rank, kind, detail in rows:
        grid.add(f"{t_ns / 1000.0:,.1f}", kind, detail)
    return grid.render()


def render_dashboard(run: dict, flame: bool = True) -> str:
    """Full dashboard text for one exported run dict (see ``load_run``)."""
    reg = MetricsRegistry.from_snapshot(run.get("metrics", {}))
    meta = run.get("meta") or {}
    header = "== rack telemetry dashboard =="
    if meta:
        header += "  (" + ", ".join(f"{k}={v}" for k, v in sorted(meta.items())) + ")"
    parts = [header]
    headline = render_headline(reg)
    if headline:
        parts.append(headline)
    tenants = render_tenants(reg)
    if tenants:
        parts.append(tenants)
    resilience = render_resilience(reg)
    if resilience:
        parts.append(resilience)
    parts.append(render_subsystems(reg))
    if run.get("atlas"):
        # lazy import: atlas.render imports this module's grid helpers
        from .atlas.render import render_atlas

        parts.append(render_atlas(run["atlas"]))
    if flame and run.get("trace"):
        from .spans import TraceBuffer, Span

        buf = TraceBuffer()
        for ev in run["trace"].get("traceEvents", []):
            if ev.get("ph") != "X":
                continue
            args = ev.get("args") or {}
            buf.spans.append(
                Span(
                    span_id=int(args.get("span_id", len(buf.spans) + 1)),
                    name=ev["name"],
                    node=ev["pid"],
                    start_ns=float(ev["ts"]) * 1000.0,
                    end_ns=(float(ev["ts"]) + float(ev.get("dur", 0.0))) * 1000.0,
                    parent_id=args.get("parent_id"),
                )
            )
        parts.append("-- hottest traced paths --\n" + buf.flame_summary())
    return "\n\n".join(parts)
