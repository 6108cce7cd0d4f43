"""Render a flight-recorder dump as a human-readable degradation timeline.

The dump is a black box: window frames, alert transitions, anomalies,
incidents, span and fault-log tails.  The postmortem view merges all of
it into one chronological story — "CE rate started climbing at 2.1 ms,
the burn alert fired at 2.4 ms, evacuation began, the node crashed at
3.0 ms" — which is what an operator actually wants after a crash.

Pure string building over the dump dict; no simulator imports, so the
CLI works on a dump file alone.
"""

from __future__ import annotations

from typing import Dict, List

from .recorder import check_schema

_REL = "reliability"


def _fmt_ns(ns: float) -> str:
    """Fixed-width simulated timestamp, microseconds with ns precision."""
    return f"{ns / 1000.0:12.3f}us"


def _scope(node: int) -> str:
    return "rack" if node == -1 else f"node{node}"


def _window_counter(frame: dict, subsystem: str, name: str) -> float:
    return sum(
        value
        for f_node, f_sub, f_name, value in frame.get("counters", [])
        if f_sub == subsystem and f_name == name
    )


def _window_gauge(frame: dict, subsystem: str, name: str) -> float:
    return sum(
        value
        for f_node, f_sub, f_name, value in frame.get("gauges", [])
        if f_sub == subsystem and f_name == name
    )


def _timeline_events(data: dict) -> List[tuple]:
    """(time_ns, sort_rank, text) for every recorded state change."""
    events: List[tuple] = []
    for alert in data.get("alerts", []):
        if alert.get("event") == "firing":
            events.append(
                (
                    alert["fired_ns"],
                    1,
                    f"ALERT fired    {alert['objective']} [{_scope(alert['node'])}] "
                    f"id={alert['alert_id']} fast={alert['fast_burn']:.2f} "
                    f"slow={alert['slow_burn']:.2f}",
                )
            )
        else:
            events.append(
                (
                    alert.get("resolved_ns") or alert["fired_ns"],
                    2,
                    f"ALERT resolved {alert['objective']} [{_scope(alert['node'])}] "
                    f"id={alert['alert_id']}",
                )
            )
    for anomaly in data.get("anomalies", []):
        events.append(
            (
                anomaly["at_ns"],
                0,
                f"ANOMALY        {anomaly['detector']} [{_scope(anomaly['node'])}] "
                f"severity={anomaly['severity']:.2f} {anomaly.get('detail', '')}".rstrip(),
            )
        )
    for incident in data.get("incidents", []):
        boxes = ",".join(str(r["box_id"]) for r in incident.get("recoveries", [])) or "-"
        events.append(
            (
                incident["at_ns"],
                3,
                f"INCIDENT       kind={incident['kind']} "
                f"blast={incident['blast_radius']}/{incident['total_boxes']} boxes={boxes}",
            )
        )
    for node, tail in sorted(data.get("fault_tail", {}).items()):
        for event in tail:
            if event["kind"] in ("node_crash", "link_down", "link_up"):
                events.append(
                    (
                        event["time_ns"],
                        4,
                        f"FAULT          {event['kind']} [node{node}] "
                        f"{event.get('detail', '')}".rstrip(),
                    )
                )
    for event in data.get("breakers", []):
        events.append(
            (
                event["t_ns"],
                5,
                f"BREAKER        {event['tenant']}@node{event['target']} "
                f"{event['from']}->{event['to']} reason={event['reason']}",
            )
        )
    for boost in data.get("boosts", []):
        pages = ",".join(f"{p:#x}" for p in boost.get("pages", []))
        events.append(
            (
                boost["t_ns"],
                6,
                f"BOOST          cause={boost['cause']} pages={pages}",
            )
        )
    events.append((data["at_ns"], 7, f"DUMP           reason={data['reason']}"))
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    return events


def _window_table(data: dict) -> List[str]:
    lines = ["window    span          ce      ue  repair.ok  repair.fail  evac"]
    for frame in data.get("windows", []):
        lines.append(
            f"{frame['index']:>6}  {_fmt_ns(frame['start_ns'])} "
            f"{_window_counter(frame, _REL, 'fault.ce'):>7.0f} "
            f"{_window_counter(frame, _REL, 'fault.ue'):>7.0f} "
            f"{_window_counter(frame, _REL, 'repair.ok'):>10.0f} "
            f"{_window_counter(frame, _REL, 'repair.fail'):>12.0f} "
            f"{_window_gauge(frame, _REL, 'scrub.evacuated'):>5.0f}"
        )
    return lines


def _fault_tail_counts(data: dict) -> List[str]:
    lines = []
    for node, tail in sorted(data.get("fault_tail", {}).items()):
        by_kind: Dict[str, int] = {}
        for event in tail:
            by_kind[event["kind"]] = by_kind.get(event["kind"], 0) + 1
        counts = " ".join(f"{kind}={n}" for kind, n in sorted(by_kind.items()))
        label = "rack" if node == "-1" else f"node{node}"
        lines.append(f"{label:>8}: {len(tail)} recent events ({counts})")
    return lines


def render_postmortem(data: dict) -> str:
    """The full postmortem report for one flight-recorder dump."""
    check_schema(data)
    out: List[str] = []
    out.append("=" * 72)
    out.append(f"FLIGHT RECORDER POSTMORTEM — {data['reason']}")
    out.append(f"dumped at {_fmt_ns(data['at_ns'])} simulated ({data['schema']})")
    out.append("=" * 72)

    windows = data.get("windows", [])
    out.append("")
    out.append(f"-- windows ({len(windows)} recorded) --")
    out.extend(_window_table(data))

    out.append("")
    events = _timeline_events(data)
    out.append(f"-- degradation timeline ({len(events)} events) --")
    for time_ns, _, text in events:
        out.append(f"{_fmt_ns(time_ns)}  {text}")

    spans = data.get("spans", [])
    if spans:
        out.append("")
        out.append(f"-- span tail ({len(spans)} spans) --")
        for row in spans[-16:]:
            # a row may end without its args dict
            name, node, start_ns, end_ns, parent_id = row[:5]
            args = row[5] if len(row) > 5 else {}
            nested = "  +- " if parent_id is not None else "  "
            suffix = ""
            if args:
                kv = " ".join(f"{k}={args[k]}" for k in sorted(args))
                suffix = f"  {{{kv}}}"
            out.append(
                f"{_fmt_ns(start_ns)}{nested}{name} [node{node}] "
                f"{end_ns - start_ns:.0f}ns{suffix}"
            )

    samples = data.get("resilience", [])
    if samples:
        out.append("")
        out.append(f"-- resilience tail ({len(samples)} samples) --")
        for s in samples[-8:]:
            out.append(
                f"{_fmt_ns(s['t_ns'])}  {s['tenant']}: "
                f"offered={s['offered']} admitted={s['admitted']} "
                f"failed={s['failed']} timed_out={s['timed_out']} "
                f"retries={s['retries']} hedges={s['hedges']} "
                f"failovers={s['failovers']} shed={s['shed']}"
            )

    out.append("")
    out.append("-- fault log tail --")
    tail_lines = _fault_tail_counts(data)
    out.extend(tail_lines if tail_lines else ["  (empty)"])
    out.append("")
    return "\n".join(out)
