"""The telemetry CLI: one entry point for a run export and a flight-recorder dump.

::

    python -m repro.telemetry dashboard RUN.json [--flame] [--trace-out T.json]
    python -m repro.telemetry top-links|top-pages RUN.json [-n 10]
    python -m repro.telemetry blame|headroom RUN.json
    python -m repro.telemetry postmortem DUMP.json
    python -m repro.telemetry list
    python -m repro.telemetry run ue-storm|all [--detection both] [--dump DUMP.json]
    python -m repro.telemetry replay|score DUMP.json [--target 0.999]

``RUN.json`` is a :meth:`~repro.telemetry.TelemetryState.export_json` run
(``python examples/redis_rack.py --telemetry RUN.json``); the atlas views read
its ``atlas`` section.  ``DUMP.json`` is a flight-recorder dump, which ``run``
writes.  ``replay`` and ``score`` score a dump against its scenario's
availability target (its reason reads ``incident:<name>:<arm>``) unless
``--target`` overrides.  A bad input file, or an output path in a missing
directory, is one ``error:`` line and exit status 2, before any work.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional

from . import load_run
from .atlas import load_atlas
from .atlas.render import render_blame, render_headroom, render_links, render_pages
from .dashboard import render_dashboard, render_incident_timeline
from .health.postmortem import render_postmortem
from .health.recorder import load_dump
from .incidents.runner import run_scenario
from .incidents.scenarios import get_scenario, scenarios
from .incidents.scoring import render_score, score_dump

#: what reading a dump, snapshot or run file from outside can raise: missing,
#: not JSON or of another schema (OSError, ValueError), or a row lacking a key
INPUT_ERRORS = (OSError, ValueError, KeyError)


def refuse_input(path, exc: Exception) -> int:
    """Print the one ``error:`` line for a bad input file; the CLI exit status."""
    if isinstance(exc, OSError):
        detail = exc.strerror or str(exc)
    elif isinstance(exc, KeyError):
        detail = f"a row lacks the key {exc}"
    elif isinstance(exc, json.JSONDecodeError):
        detail = f"not JSON ({exc})"
    else:
        detail = str(exc)
    print(f"error: {path}: {detail}", file=sys.stderr)
    return 2


def refuse_outputs(*paths: Optional[pathlib.Path]) -> Optional[int]:
    """Exit status 2 after one ``error:`` line for the first output path
    whose directory does not exist; ``None`` when every one is writable."""
    for path in paths:
        if path is not None and not path.parent.is_dir():
            print(f"error: {path}: no directory {path.parent}", file=sys.stderr)
            return 2
    return None


def _rows(text: str) -> int:
    """``-n``: a row limit, a whole number >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number >= 1, got {text!r}")
    return value


def _target(text: str) -> float:
    """``--target``: an availability target, a number in (0, 1]."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0.0 < value <= 1.0:  # NaN fails this too
        raise argparse.ArgumentTypeError(f"must be a number in (0, 1], got {text!r}")
    return value


def _write_json(path: pathlib.Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def _cmd_dashboard(args) -> int:
    run = load_run(args.path)
    if args.trace_out is not None and run.get("trace") is None:
        print("error: run has no trace (enable tracing before exporting)", file=sys.stderr)
        return 2
    print(render_dashboard(run, flame=args.flame))
    if args.trace_out is not None:
        args.trace_out.write_text(json.dumps(run["trace"], indent=2) + "\n")
        print(f"\nwrote Chrome trace to {args.trace_out} "
              "(load in chrome://tracing or https://ui.perfetto.dev)")
    return 0


def _cmd_atlas(args) -> int:
    snap = load_atlas(args.path)
    if args.command == "top-links":
        print(render_links(snap, n=args.n))
    elif args.command == "top-pages":
        print(render_pages(snap, n=args.n))
    elif args.command == "blame":
        print(render_blame(snap))
    else:
        print(render_headroom(snap))
    return 0


def _cmd_postmortem(args) -> int:
    print(render_postmortem(load_dump(args.path)))
    return 0


def _cmd_list(args) -> int:
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
            delta = (by_arm["off"].score["mttm_ns"] or 0.0) - (by_arm["on"].score["mttm_ns"] or 0.0)
            print(f"{name}: detection-on beats detection-off on MTTM by "
                  f"{delta / 1e6:.3f} ms")
            print()
    if args.json is not None:
        _write_json(args.json, {"scores": all_scores})
    return 0


def _cmd_offline(args) -> int:
    """``replay`` / ``score``: the scenario's target unless ``--target`` overrides."""
    dump = load_dump(args.path)
    target = args.target
    reason = dump.get("reason", "")
    if target is None and reason.startswith("incident:"):
        known = scenarios().get(reason.split(":")[1])  # None: not a catalogue scenario
        target = getattr(known, "availability_target", None)
    score = score_dump(dump, availability_target=0.999 if target is None else target,
                       scenario=dump.get("reason"))
    if args.command == "replay":
        print(render_incident_timeline(dump, score))
        print()
    print(render_score(score))
    if args.command == "score" and args.json is not None:
        _write_json(args.json, score)
    return 0


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="python -m repro.telemetry",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, reads=None, path_type=None):
        """A subcommand; ``reads`` names its input file, if it reads one."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        if reads is not None:
            p.add_argument("path", metavar=reads, type=path_type)
        return p

    p = command("dashboard", _cmd_dashboard, "render a run export's dashboard", "run", pathlib.Path)
    p.add_argument("--flame", action="store_true",
                   help="include the flamegraph-style span summary")
    p.add_argument("--trace-out", type=pathlib.Path, default=None,
                   help="write the embedded Chrome trace_event JSON here")
    p = command("top-links", _cmd_atlas, "busiest fabric links", "snapshot")
    p.add_argument("-n", type=_rows, default=None, help="row limit")
    p = command("top-pages", _cmd_atlas, "hottest global pages", "snapshot")
    p.add_argument("-n", type=_rows, default=16, help="row limit")
    command("blame", _cmd_atlas, "contention attribution", "snapshot")
    command("headroom", _cmd_atlas, "capacity headroom / t-to-sat", "snapshot")
    command("postmortem", _cmd_postmortem, "render a dump as a degradation timeline", "dump")
    command("list", _cmd_list, "list the scenario catalogue")

    p = command("run", _cmd_run, "run scenarios live and score them")
    p.add_argument("scenario", choices=[*scenarios(), "all"], help="scenario name, or 'all'")
    p.add_argument("--detection", choices=("on", "off", "both"),
                   default="on", help="which detection arm(s) to run")
    p.add_argument("--dump", type=pathlib.Path, default=None,
                   help="write the flight-recorder dump JSON here")
    p.add_argument("--trace-out", type=pathlib.Path, default=None,
                   help="write the Chrome trace JSON here")
    p.add_argument("--json", type=pathlib.Path, default=None,
                   help="write all score cards here")
    p.add_argument("--timeline", action="store_true",
                   help="print the incident timeline panel")
    p.add_argument("--critical-path", action="store_true",
                   help="print the traced critical-path summary")

    for name, summary in (("replay", "render a dump into the scored incident timeline"),
                          ("score", "score a dump offline")):
        p = command(name, _cmd_offline, summary, "dump", pathlib.Path)
        p.add_argument("--target", type=_target, default=None,
                       help="availability target (default: from scenario)")
    # the loop's last parser is score's: it alone writes its card
    p.add_argument("--json", type=pathlib.Path, default=None, help="write the score card here")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    refused = refuse_outputs(*(getattr(args, name, None) for name in ("dump", "trace_out", "json")))
    if refused is not None:
        return refused
    if "path" not in args:  # list and run read no file
        return args.handler(args)
    try:
        return args.handler(args)
    except BrokenPipeError:  # |head and friends
        return 0
    except INPUT_ERRORS as exc:
        return refuse_input(args.path, exc)


if __name__ == "__main__":
    sys.exit(main())
