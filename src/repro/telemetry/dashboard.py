"""Latency-breakdown dashboard: a terminal snapshot of one exported run.

Renders the headline health panel the paper's evaluation reads off —
per-node cache hit ratio, CE/UE/repair counts, socket IPC latency — then
a per-subsystem breakdown of every other metric, and (when the run was
traced) the flamegraph-style hottest-paths summary.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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
    grid = _Grid("per-node health", ["node", "cache hit%"])
    for node in sorted(set(cache_hits) | set(cache_misses)):
        grid.add(scope_label(node),
                 _pct(rate(cache_hits.get(node, 0.0), cache_misses.get(node, 0.0))))
    lines = [grid.render()] if grid.rows else []

    # rack-wide reliability summary
    ce = reg.counter_total("reliability", "fault.ce")
    ue = reg.counter_total("reliability", "fault.ue")
    repairs = reg.counter_total("reliability", "repair.ok")
    failed = reg.counter_total("reliability", "repair.fail")
    rel = _Grid("reliability", ["CE", "UE", "repairs ok", "repairs failed"])
    rel.add(_fmt(ce), _fmt(ue), _fmt(repairs), _fmt(failed))
    lines.append(rel.render())

    zc = merged_histogram(reg.histograms, "core.ipc", "ipc.zero_copy_send_ns")
    if zc is not None and zc.count:
        ipc = _Grid("ipc latency (simulated ns)",
                    ["path", "count", "mean", "p50", "p99", "max"])
        ipc.add("socket (zero-copy)", _fmt(zc.count), _fmt(zc.mean),
                _fmt(zc.percentile(0.5)), _fmt(zc.percentile(0.99)),
                _fmt(zc.max_value))
        lines.append(ipc.render())
    return "\n\n".join(lines)


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
                         f"[{scope_label(event.node)}] {row['detail']}".rstrip()))
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
            pages = ",".join(f"{p:#x}" for p in row["pages"])
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
        f"incident timeline — {dump['reason']}",
        ["t (us)", "event", "detail"],
    )
    for t_ns, _rank, kind, detail in rows:
        grid.add(f"{t_ns / 1000.0:,.1f}", kind, detail)
    return grid.render()


def render_dashboard(run: dict, flame: bool = True) -> str:
    """Full dashboard text for one exported run dict (see ``load_run``)."""
    reg = MetricsRegistry.from_snapshot(run["metrics"])
    meta = run["meta"]
    header = "== rack telemetry dashboard =="
    if meta:
        header += "  (" + ", ".join(f"{k}={v}" for k, v in sorted(meta.items())) + ")"
    parts = [header]
    headline = render_headline(reg)
    if headline:
        parts.append(headline)
    parts.append(render_subsystems(reg))
    if run.get("atlas"):
        # lazy import: atlas.render imports this module's grid helpers
        from .atlas.render import render_atlas

        parts.append(render_atlas(run["atlas"]))
    if flame and run["trace"]:
        from .spans import TraceBuffer, Span

        buf = TraceBuffer()
        for ev in run["trace"]["traceEvents"]:
            if ev["ph"] != "X":
                continue
            args = ev.get("args", {})
            buf.spans.append(
                Span(
                    span_id=args.get("span_id", len(buf.spans) + 1),
                    name=ev["name"],
                    node=ev["pid"],
                    start_ns=ev["ts"] * 1000.0,
                    end_ns=(ev["ts"] + ev["dur"]) * 1000.0,
                    parent_id=args.get("parent_id"),
                )
            )
        parts.append("-- hottest traced paths --\n" + buf.flame_summary())
    return "\n\n".join(parts)
