"""Render a telemetry dashboard from an exported run.

::

    python -m repro.telemetry run.json              # dashboard snapshot
    python -m repro.telemetry run.json --flame      # + hottest traced paths
    python -m repro.telemetry run.json --trace-out trace.json
                                                    # extract Chrome trace JSON

Runs are produced by :meth:`repro.telemetry.TelemetryState.export_json`
— e.g. ``python examples/redis_rack.py --telemetry run.json`` or a chaos
campaign with tracing enabled.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from . import INPUT_ERRORS, load_run, refuse_input
from .dashboard import render_dashboard


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.telemetry", description=__doc__.splitlines()[0]
    )
    ap.add_argument("run", type=pathlib.Path, help="exported telemetry run JSON")
    ap.add_argument("--flame", action="store_true",
                    help="include the flamegraph-style span summary")
    ap.add_argument("--trace-out", type=pathlib.Path, default=None,
                    help="write the embedded Chrome trace_event JSON here")
    args = ap.parse_args(argv)

    try:
        run = load_run(args.run)
        print(render_dashboard(run, flame=args.flame))
    except INPUT_ERRORS as exc:
        return refuse_input(args.run, exc)

    if args.trace_out is not None:
        trace = run.get("trace")
        if trace is None:
            print("error: run has no trace (enable tracing before exporting)",
                  file=sys.stderr)
            return 2
        args.trace_out.write_text(json.dumps(trace, indent=2) + "\n")
        print(f"\nwrote Chrome trace to {args.trace_out} "
              "(load in chrome://tracing or https://ui.perfetto.dev)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
