"""Score one incident from its flight-recorder dump alone.

The scorer is pure dict-walking over a ``repro.telemetry.flightrec/3``
snapshot — no simulator imports — so ``python -m
repro.telemetry.incidents score DUMP.json`` works offline, on a dump
from any run.  Four scores, per the AIOpsLab-style ops loop:

* **MTTD** — injection to the first *correct* SLO alert or anomaly
  (rack-wide, or scoped to a ground-truth node);
* **localization** — precision/recall/F1 of the blame set (scoped
  alerts + anomalies, breaker opens, predictor boost pages, failed
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

from typing import Dict, List, Optional, Set, Tuple

_PAGE = 4096

#: fault kinds that constitute an injected incident (repairs and link
#: restorations are consequences, not causes)
GROUND_TRUTH_KINDS = ("ce", "link_down", "node_crash", "ue")

#: tenant-scoped counter names the availability ratio reads
_GOOD = "admitted"
_BAD = "resilience.lost"
_TENANT_PREFIX = "traffic/"


def ground_truth(dump: dict) -> Tuple[Optional[float], Set[str]]:
    """(first injection time, fault sites) from the dump's fault tail.

    Sites are ``node:<id>`` for topology faults (link down, crash) and
    memory faults recorded against a node, plus ``page:<hex>`` for
    memory faults with an address — the two vocabularies the detection
    stack can blame in.
    """
    t0: Optional[float] = None
    sites: Set[str] = set()
    for node_str, tail in dump.get("fault_tail", {}).items():
        node = int(node_str)
        for ev in tail:
            if ev["kind"] not in GROUND_TRUTH_KINDS:
                continue
            t = float(ev["time_ns"])
            t0 = t if t0 is None else min(t0, t)
            if ev["kind"] in ("link_down", "node_crash"):
                if node >= 0:
                    sites.add(f"node:{node}")
            else:  # ue / ce
                if ev.get("addr") is not None:
                    sites.add(f"page:{int(ev['addr']) & ~(_PAGE - 1):#x}")
                if node >= 0:
                    sites.add(f"node:{node}")
    return t0, sites


def blame_set(dump: dict, t0: float) -> Set[str]:
    """Everything the detection/mitigation stack pointed at after ``t0``."""
    blame: Set[str] = set()
    for alert in dump.get("alerts", []):
        if alert.get("event") == "firing" and alert["fired_ns"] >= t0:
            if alert["node"] >= 0:
                blame.add(f"node:{alert['node']}")
    for anomaly in dump.get("anomalies", []):
        if anomaly["at_ns"] >= t0 and anomaly["node"] >= 0:
            blame.add(f"node:{anomaly['node']}")
    for ev in dump.get("breakers", []):
        if ev["to"] == "open" and ev["t_ns"] >= t0:
            blame.add(f"node:{ev['target']}")
    for boost in dump.get("boosts", []):
        if boost["t_ns"] >= t0:
            for page in boost.get("pages", []):
                blame.add(f"page:{int(page):#x}")
    for row in dump.get("spans", []):
        if len(row) < 6:
            continue  # no args, nothing attributable
        name, _node, start_ns, _end_ns, _parent, args = row[:6]
        if start_ns < t0:
            continue
        if name in ("traffic.attempt", "traffic.hedge") and args.get("outcome") == "failed":
            target = args.get("target")
            if target is not None:
                blame.add(f"node:{int(target)}")
    # the fabric's own per-link ledger stamps the simulated
    # time of every link-down — resolve flapped links to their node
    # endpoints (``link_down`` fault events carry no node id, so this
    # is what localises a severed port)
    for row in dump.get("atlas_links", []):
        if any(down >= t0 for down in row.get("downs", [])):
            for vertex in str(row.get("link", "")).split("|"):
                if vertex.startswith("node:"):
                    blame.add(vertex)
    return blame


def _detection_times(dump: dict, t0: float, truth: Set[str]) -> List[float]:
    """Times of *correct* detections: rack-wide or truth-scoped."""
    times: List[float] = []
    for alert in dump.get("alerts", []):
        if alert.get("event") != "firing" or alert["fired_ns"] < t0:
            continue
        if alert["node"] < 0 or f"node:{alert['node']}" in truth:
            times.append(float(alert["fired_ns"]))
    for anomaly in dump.get("anomalies", []):
        if anomaly["at_ns"] < t0:
            continue
        if anomaly["node"] < 0 or f"node:{anomaly['node']}" in truth:
            times.append(float(anomaly["at_ns"]))
    return times


def _availability_by_window(dump: dict) -> List[Tuple[float, float, float]]:
    """(end_ns, availability, lost) per window frame that saw traffic."""
    rows: List[Tuple[float, float, float]] = []
    for frame in dump.get("windows", []):
        good = bad = 0.0
        for _node, sub, name, value in frame.get("counters", []):
            if not sub.startswith(_TENANT_PREFIX):
                continue
            if name == _GOOD:
                good += value
            elif name == _BAD:
                bad += value
        if good + bad <= 0:
            continue
        rows.append((float(frame["end_ns"]), good / (good + bad), bad))
    return rows


def _blast_radius(dump: dict, t0: float) -> dict:
    tenants: Set[str] = set()
    lost = 0.0
    for frame in dump.get("windows", []):
        if float(frame["end_ns"]) <= t0:
            continue
        for _node, sub, name, value in frame.get("counters", []):
            if sub.startswith(_TENANT_PREFIX) and name == _BAD and value > 0:
                tenants.add(sub[len(_TENANT_PREFIX):])
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

    detections = _detection_times(dump, t0, truth)
    mttd = min(detections) - t0 if detections else None

    blame = blame_set(dump, t0)
    hits = len(blame & truth)
    precision = hits / len(blame) if blame else 0.0
    recall = hits / len(truth) if truth else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0 else 0.0
    )

    rows = _availability_by_window(dump)
    degraded = [
        (end_ns, avail) for end_ns, avail, _lost in rows
        if end_ns > t0 and avail < availability_target
    ]
    mttm = max(end for end, _ in degraded) - t0 if degraded else 0.0
    post = [(end_ns, avail) for end_ns, avail, _ in rows if end_ns > t0]
    recovered = (not post) or post[-1][1] >= availability_target

    blast = _blast_radius(dump, t0)
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
