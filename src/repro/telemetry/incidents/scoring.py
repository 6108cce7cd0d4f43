"""Score one incident from its flight-recorder dump alone.

The scorer reads a ``repro.telemetry.flightrec/4`` snapshot through the
recorder's frame and event views — no simulator imports — so ``python -m
repro.telemetry score DUMP.json`` works offline, on a dump
from any run.  Four scores, per the AIOpsLab-style ops loop:

* **MTTD** — injection to the first *correct* SLO alert (rack-wide, or
  scoped to a ground-truth node; one stamped just before injection, in
  the same health window, counts at that window's end);
* **localization** — precision/recall/F1 of the blame set (scoped
  alerts, breaker opens, predictor boost pages, failed
  request-path spans, and the atlas link tail's
  down-stamped links, resolved to their node endpoints) against the
  injected fault sites;
* **MTTM** — injection to the end of the last availability-degraded
  window (0 when mitigation never let availability dip);
* **blast radius** — tenants with lost requests, total requests lost,
  degraded windows.

Ground truth needs no side channel: the fault-log tail in the dump *is*
the injection record (simulated time, node, address per fault), so a
replayed dump scores identically to the live run — byte-identical per
seed.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from .. import ADMITTED_SERIES, LOST_SERIES, TENANT_PREFIX
from ..health import recorder as rec
from ..health.windows import WindowFrame

_PAGE = 4096

#: fault kinds that constitute an injected incident (repairs and link
#: restorations are consequences, not causes)
GROUND_TRUTH_KINDS = ("ce", "link_down", "node_crash", "ue")

#: the request-path span whose failed outcome blames its target node
_ATTEMPT = "traffic.attempt"


def ground_truth(dump: dict) -> Tuple[Optional[float], Set[str]]:
    """(first injection time, fault sites) from the dump's fault tail.

    Sites are ``node:<id>`` for topology faults (link down, crash) and
    memory faults recorded against a node, plus ``page:<hex>`` for
    memory faults with an address — the two vocabularies the detection
    stack can blame in.
    """
    t0: Optional[float] = None
    sites: Set[str] = set()
    for event in rec.dump_events(dump):
        row = event.fields
        if event.kind != rec.FAULT or row["kind"] not in GROUND_TRUTH_KINDS:
            continue
        t0 = event.t_ns if t0 is None else min(t0, event.t_ns)
        if row["kind"] not in ("link_down", "node_crash") and row.get("addr") is not None:
            sites.add(f"page:{int(row['addr']) & ~(_PAGE - 1):#x}")
        if event.node >= 0:
            sites.add(f"node:{event.node}")
    return t0, sites


def blame_set(dump: dict, t0: float) -> Set[str]:
    """Everything the detection/mitigation stack pointed at after ``t0``:
    scoped alerts, breaker opens, boosted pages, failed
    request attempts' targets, and the endpoints of links that went down
    (``link_down`` faults carry no node id, so this is what localises a
    severed port)."""
    blame: Set[str] = set()
    for event in rec.dump_events(dump):
        if event.t_ns < t0:
            continue
        kind, row = event.kind, event.fields
        if kind in (rec.ALERT_FIRED, rec.LINK_DOWN) and event.node >= 0:
            blame.add(f"node:{event.node}")
        elif kind == rec.BREAKER and row["to"] == "open":
            blame.add(f"node:{event.node}")
        elif kind == rec.BOOST:
            blame.update(f"page:{int(page):#x}" for page in row.get("pages", []))
        elif (kind == rec.SPAN and row["name"] == _ATTEMPT
              and row["args"].get("outcome") == "failed"
              and row["args"].get("target") is not None):
            blame.add(f"node:{int(row['args']['target'])}")
    return blame


def _first_detection(
    dump: dict, t0: float, truth: Set[str], frames: List[WindowFrame]
) -> Optional[float]:
    """When the first *correct* alert (rack-wide or truth-scoped) at or
    after ``t0`` fired.

    A detection is stamped with its window's end, and a fault stamped by a
    node clock running ahead of the health tick is counted in a window that
    ends before it.  So when nothing follows ``t0``, a correct detection
    stamped inside the health window holding ``t0`` counts at that window's
    end: conservative, and never before ``t0``.
    """
    times = [
        event.t_ns for event in rec.dump_events(dump)
        if event.kind == rec.ALERT_FIRED
        and (event.node < 0 or f"node:{event.node}" in truth)
    ]
    later = [t for t in times if t >= t0]
    if later:
        return min(later)
    if frames:
        window = (frames[0].end_ns - frames[0].start_ns) / frames[0].windows
        start = t0 // window * window
        if any(start <= t for t in times):
            return start + window
    return None


def _availability_by_window(frames: List[WindowFrame]) -> List[Tuple[float, float, float]]:
    """(end_ns, availability, lost) per window frame that saw traffic."""
    rows: List[Tuple[float, float, float]] = []
    for frame in frames:
        good = bad = 0.0
        for (_node, sub, name), value in frame.counters.items():
            if not sub.startswith(TENANT_PREFIX):
                continue
            if name == ADMITTED_SERIES:
                good += value
            elif name == LOST_SERIES:
                bad += value
        if good + bad <= 0:
            continue
        rows.append((frame.end_ns, good / (good + bad), bad))
    return rows


def _blast_radius(frames: List[WindowFrame], t0: float) -> dict:
    tenants: Set[str] = set()
    lost = 0.0
    for frame in frames:
        if frame.end_ns <= t0:
            continue
        for (_node, sub, name), value in frame.counters.items():
            if sub.startswith(TENANT_PREFIX) and name == LOST_SERIES and value > 0:
                tenants.add(sub[len(TENANT_PREFIX):])
                lost += value
    return {"tenants": sorted(tenants), "requests_lost": lost}


def score_dump(
    dump: dict,
    availability_target: float = 0.999,
    scenario: Optional[str] = None,
) -> dict:
    """The full score card for one dump — deterministic, JSON-ready."""
    t0, truth = ground_truth(dump)
    if t0 is None:
        return {
            "scenario": scenario,
            "t0_ns": None,
            "mttd_ns": None,
            "mttm_ns": None,
            "recovered": True,
            "localization": {"precision": None, "recall": None, "f1": None,
                             "blame": [], "truth": []},
            "blast_radius": {"tenants": [], "requests_lost": 0.0,
                             "degraded_windows": 0},
            "availability_target": availability_target,
        }

    frames = rec.dump_frames(dump)
    detected = _first_detection(dump, t0, truth, frames)
    mttd = detected - t0 if detected is not None else None

    blame = blame_set(dump, t0)
    hits = len(blame & truth)
    precision = hits / len(blame) if blame else 0.0
    recall = hits / len(truth) if truth else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0 else 0.0
    )

    rows = _availability_by_window(frames)
    degraded = [
        (end_ns, avail) for end_ns, avail, _lost in rows
        if end_ns > t0 and avail < availability_target
    ]
    mttm = max(end for end, _ in degraded) - t0 if degraded else 0.0
    post = [(end_ns, avail) for end_ns, avail, _ in rows if end_ns > t0]
    recovered = (not post) or post[-1][1] >= availability_target

    blast = _blast_radius(frames, t0)
    blast["degraded_windows"] = len(degraded)

    return {
        "scenario": scenario,
        "t0_ns": t0,
        "mttd_ns": mttd,
        "mttm_ns": mttm,
        "recovered": recovered,
        "localization": {
            "precision": round(precision, 6),
            "recall": round(recall, 6),
            "f1": round(f1, 6),
            "blame": sorted(blame),
            "truth": sorted(truth),
        },
        "blast_radius": blast,
        "availability_target": availability_target,
    }


def render_score(score: dict) -> str:
    """Terminal one-pager for one score card."""
    loc = score["localization"]
    blast = score["blast_radius"]

    def _ns(value):
        return "n/a" if value is None else f"{value / 1e6:.3f} ms"

    lines = [
        f"== incident score: {score.get('scenario') or '(unnamed)'} ==",
        f"injection t0:      {_ns(score['t0_ns'])}",
        f"MTTD:              {_ns(score['mttd_ns'])}",
        f"MTTM:              {_ns(score['mttm_ns'])}",
        f"recovered:         {score['recovered']}",
        f"localization:      precision={loc['precision']} "
        f"recall={loc['recall']} f1={loc['f1']}",
        f"  truth: {', '.join(loc['truth']) or '-'}",
        f"  blame: {', '.join(loc['blame']) or '-'}",
        f"blast radius:      tenants={','.join(blast['tenants']) or '-'} "
        f"requests_lost={blast['requests_lost']:.0f} "
        f"degraded_windows={blast['degraded_windows']}",
    ]
    return "\n".join(lines)
