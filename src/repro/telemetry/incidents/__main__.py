"""CLI for the scored incident benchmark.

::

    python -m repro.telemetry.incidents list
    python -m repro.telemetry.incidents run ue-storm --detection both
    python -m repro.telemetry.incidents run all --json scores.json
    python -m repro.telemetry.incidents replay DUMP.json
    python -m repro.telemetry.incidents score DUMP.json [--target 0.999]

``run`` executes scenarios live (simulated clock; deterministic per
scenario+arm) and can write the flight-recorder dump, the Chrome trace,
and the score card.  ``replay`` re-renders a dump into the scored
incident timeline offline; ``score`` prints just the score card.  A
dump whose reason names a known scenario (``incident:<name>:<arm>``)
scores against that scenario's availability target; ``--target``
overrides.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional

from .. import INPUT_ERRORS, refuse_input
from ..dashboard import render_incident_timeline
from ..health.recorder import load_dump
from .runner import run_scenario
from .scenarios import get_scenario, scenarios
from .scoring import render_score, score_dump


def _infer_target(dump: dict) -> Optional[float]:
    reason = dump.get("reason", "")
    if not reason.startswith("incident:"):
        return None
    parts = reason.split(":")
    try:
        return get_scenario(parts[1]).availability_target
    except KeyError:
        return None


def _write_json(path: pathlib.Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def _cmd_list() -> int:
    for name, s in scenarios().items():
        print(f"{name:15} seed={s.campaign.seed:<4} "
              f"horizon={s.horizon_ns / 1e6:.0f}ms  {s.description}")
    return 0


def _cmd_run(args) -> int:
    names = list(scenarios()) if args.scenario == "all" else [args.scenario]
    arms = {"on": [True], "off": [False], "both": [True, False]}[args.detection]
    all_scores: List[dict] = []
    for name in names:
        scenario = get_scenario(name)
        by_arm = {}
        for detection in arms:
            result = run_scenario(scenario, detection=detection)
            arm = "on" if detection else "off"
            by_arm[arm] = result
            print(render_score(result.score))
            print(f"detection:         {arm}")
            if args.timeline:
                print()
                print(render_incident_timeline(result.dump, result.score))
            if args.critical_path:
                print()
                print(result.critical_path)
            print()
            all_scores.append(dict(result.score, detection=arm))
            suffix = f".{arm}" if len(arms) > 1 else ""
            if args.dump is not None:
                path = args.dump
                if len(names) > 1:
                    path = path.with_name(f"{path.stem}.{name}{suffix}{path.suffix}")
                elif suffix:
                    path = path.with_name(f"{path.stem}{suffix}{path.suffix}")
                _write_json(path, result.dump)
            if args.trace_out is not None:
                path = args.trace_out
                if len(names) > 1 or suffix:
                    path = path.with_name(f"{path.stem}.{name}{suffix}{path.suffix}")
                _write_json(path, result.chrome_trace)
        if len(arms) == 2:
            delta = (by_arm["off"].score["mttm_ns"] or 0.0) - (
                by_arm["on"].score["mttm_ns"] or 0.0
            )
            print(f"{name}: detection-on beats detection-off on MTTM by "
                  f"{delta / 1e6:.3f} ms")
            print()
    if args.json is not None:
        _write_json(args.json, {"scores": all_scores})
    return 0


def _cmd_offline(args) -> int:
    """``replay`` / ``score``: a bad dump is one ``error:`` line, exit 2."""
    try:
        dump = load_dump(args.dump)
        target = args.target if args.target is not None else _infer_target(dump)
        score = score_dump(dump, availability_target=target or 0.999,
                           scenario=dump.get("reason"))
        if args.cmd == "replay":
            print(render_incident_timeline(dump, score))
            print()
        print(render_score(score))
    except INPUT_ERRORS as exc:
        return refuse_input(args.dump, exc)
    if args.cmd == "score" and args.json is not None:
        _write_json(args.json, score)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.telemetry.incidents",
        description=__doc__.splitlines()[0],
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    sub.add_parser("list", help="list the scenario catalogue")

    p_run = sub.add_parser("run", help="run scenarios live and score them")
    p_run.add_argument("scenario", help="scenario name, or 'all'")
    p_run.add_argument("--detection", choices=("on", "off", "both"),
                       default="on", help="which detection arm(s) to run")
    p_run.add_argument("--dump", type=pathlib.Path, default=None,
                       help="write the flight-recorder dump JSON here")
    p_run.add_argument("--trace-out", type=pathlib.Path, default=None,
                       help="write the Chrome trace JSON here")
    p_run.add_argument("--json", type=pathlib.Path, default=None,
                       help="write all score cards here")
    p_run.add_argument("--timeline", action="store_true",
                       help="print the incident timeline panel")
    p_run.add_argument("--critical-path", action="store_true",
                       help="print the traced critical-path summary")

    p_replay = sub.add_parser(
        "replay", help="render a dump into the scored incident timeline")
    p_replay.add_argument("dump", type=pathlib.Path)
    p_replay.add_argument("--target", type=float, default=None,
                          help="availability target (default: from scenario)")

    p_score = sub.add_parser("score", help="score a dump offline")
    p_score.add_argument("dump", type=pathlib.Path)
    p_score.add_argument("--target", type=float, default=None,
                         help="availability target (default: from scenario)")
    p_score.add_argument("--json", type=pathlib.Path, default=None,
                         help="write the score card here")

    args = ap.parse_args(argv)
    if args.cmd == "list":
        return _cmd_list()
    if args.cmd == "run":
        return _cmd_run(args)
    return _cmd_offline(args)


if __name__ == "__main__":
    sys.exit(main())
