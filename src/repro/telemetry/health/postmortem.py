"""Render a flight-recorder dump as a human-readable degradation timeline.

The dump is a black box: window frames, alert transitions, breaker
transitions, predictor boosts, span and fault-log tails.  The postmortem
view merges all of it into one chronological story — "the CE burn alert
fired at 2.4 ms, evacuation began, the node crashed at 3.0 ms" — which
is what an operator actually wants after a crash.

Pure string building over the recorder's two views of the dump; no
simulator imports, so the CLI works on a dump file alone.
"""

from __future__ import annotations

from typing import Dict, List

from . import recorder as rec
from .slo import scope_label
from .windows import WindowFrame

_REL = "reliability"

#: timeline faults: the topology changes (memory faults are counted below)
_TIMELINE_FAULTS = ("node_crash", "link_down", "link_up")


def _fmt_ns(ns: float) -> str:
    """Fixed-width simulated timestamp, microseconds with ns precision."""
    return f"{ns / 1000.0:12.3f}us"


def _timeline_line(event: rec.DumpEvent):
    """``(sort_rank, text)`` of one timeline event, or None to leave it out."""
    row, scope = event.fields, scope_label(event.node)
    if event.kind == rec.ALERT_FIRED:
        return 1, (f"ALERT fired    {row['objective']} [{scope}] "
                   f"id={row['alert_id']} fast={row['fast_burn']:.2f} "
                   f"slow={row['slow_burn']:.2f}")
    if event.kind == rec.ALERT_RESOLVED:
        return 2, f"ALERT resolved {row['objective']} [{scope}] id={row['alert_id']}"
    if event.kind == rec.FAULT and row["kind"] in _TIMELINE_FAULTS:
        return 4, (f"FAULT          {row['kind']} [node{event.node}] "
                   f"{row['detail']}".rstrip())
    if event.kind == rec.BREAKER:
        return 5, (f"BREAKER        {row['tenant']}@node{row['target']} "
                   f"{row['from']}->{row['to']} reason={row['reason']}")
    if event.kind == rec.BOOST:
        pages = ",".join(f"{p:#x}" for p in row["pages"])
        return 6, f"BOOST          cause={row['cause']} pages={pages}"
    return None


def _timeline(data: dict, events: List[rec.DumpEvent]) -> List[tuple]:
    """(time_ns, sort_rank, text) for every recorded state change."""
    timeline = []
    for event in events:
        line = _timeline_line(event)
        if line is not None:
            timeline.append((event.t_ns, *line))
    timeline.append((data["at_ns"], 7, f"DUMP           reason={data['reason']}"))
    timeline.sort()
    return timeline


def _window_table(frames: List[WindowFrame]) -> List[str]:
    lines = ["window    span          ce      ue  repair.ok  repair.fail  evac"]
    for frame in frames:
        evacuated = sum(v for (_node, sub, name), v in frame.gauges.items()
                        if sub == _REL and name == "scrub.evacuated")
        lines.append(
            f"{frame.index:>6}  {_fmt_ns(frame.start_ns)} "
            f"{frame.delta_total(_REL, 'fault.ce'):>7.0f} "
            f"{frame.delta_total(_REL, 'fault.ue'):>7.0f} "
            f"{frame.delta_total(_REL, 'repair.ok'):>10.0f} "
            f"{frame.delta_total(_REL, 'repair.fail'):>12.0f} "
            f"{evacuated:>5.0f}"
        )
    return lines


def _fault_tail_counts(events: List[rec.DumpEvent]) -> List[str]:
    by_node: Dict[int, Dict[str, int]] = {}
    for event in events:
        if event.kind == rec.FAULT:
            kinds = by_node.setdefault(event.node, {})
            kinds[event.fields["kind"]] = kinds.get(event.fields["kind"], 0) + 1
    lines = []
    # in the order the dump's string node keys sort ("-1", "0", "1", "10", "2")
    for node, by_kind in sorted(by_node.items(), key=lambda item: str(item[0])):
        counts = " ".join(f"{kind}={n}" for kind, n in sorted(by_kind.items()))
        lines.append(f"{scope_label(node):>8}: {sum(by_kind.values())} "
                     f"recent events ({counts})")
    return lines


def render_postmortem(data: dict) -> str:
    """The full postmortem report for one flight-recorder dump."""
    events = rec.dump_events(data)
    out: List[str] = []
    out.append("=" * 72)
    out.append(f"FLIGHT RECORDER POSTMORTEM — {data['reason']}")
    out.append(f"dumped at {_fmt_ns(data['at_ns'])} simulated ({data['schema']})")
    out.append("=" * 72)

    frames = rec.dump_frames(data)
    out.append("")
    out.append(f"-- windows ({len(frames)} recorded) --")
    out.extend(_window_table(frames))

    out.append("")
    timeline = _timeline(data, events)
    out.append(f"-- degradation timeline ({len(timeline)} events) --")
    for time_ns, _, text in timeline:
        out.append(f"{_fmt_ns(time_ns)}  {text}")

    spans = sorted((e for e in events if e.kind == rec.SPAN),
                   key=lambda e: e.fields["seq"])
    if spans:
        out.append("")
        out.append(f"-- span tail ({len(spans)} spans) --")
        for span in spans[-16:]:
            row = span.fields
            nested = "  +- " if row["parent_id"] is not None else "  "
            suffix = ""
            if row["args"]:
                kv = " ".join(f"{k}={row['args'][k]}" for k in sorted(row["args"]))
                suffix = f"  {{{kv}}}"
            out.append(
                f"{_fmt_ns(span.t_ns)}{nested}{row['name']} [node{span.node}] "
                f"{row['end_ns'] - span.t_ns:.0f}ns{suffix}"
            )

    samples = [e for e in events if e.kind == rec.RESILIENCE]
    if samples:
        out.append("")
        out.append(f"-- resilience tail ({len(samples)} samples) --")
        for sample in samples[-8:]:
            s = sample.fields
            out.append(
                f"{_fmt_ns(sample.t_ns)}  {s['tenant']}: "
                f"offered={s['offered']} admitted={s['admitted']} "
                f"failed={s['failed']} retries={s['retries']} "
                f"failovers={s['failovers']} shed={s['shed']}"
            )

    out.append("")
    out.append("-- fault log tail --")
    tail_lines = _fault_tail_counts(events)
    out.extend(tail_lines if tail_lines else ["  (empty)"])
    out.append("")
    return "\n".join(out)
