"""CLI: ``python -m repro.telemetry.health postmortem dump.json``."""

from __future__ import annotations

import argparse
import sys

from .. import INPUT_ERRORS, refuse_input
from .postmortem import render_postmortem
from .recorder import load_dump


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.health",
        description="Inspect flight-recorder dumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pm = sub.add_parser("postmortem", help="render a dump as a degradation timeline")
    pm.add_argument("dump", help="path to a flight-recorder JSON dump")
    args = parser.parse_args(argv)

    if args.command == "postmortem":
        try:
            print(render_postmortem(load_dump(args.dump)))
        except BrokenPipeError:  # |head and friends
            return 0
        except INPUT_ERRORS as exc:
            return refuse_input(args.dump, exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
