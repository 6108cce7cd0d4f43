"""Attribution atlas CLI.

::

    python -m repro.telemetry.atlas top-links  SNAP.json [-n 10]
    python -m repro.telemetry.atlas top-pages  SNAP.json [-n 10]
    python -m repro.telemetry.atlas blame      SNAP.json
    python -m repro.telemetry.atlas headroom   SNAP.json

``SNAP.json`` is an atlas snapshot (:meth:`Atlas.export_json`) or a
telemetry run export that carries an ``atlas`` section
(:meth:`TelemetryState.export_json` with an atlas attached).  All views
are offline dict-walking — no simulator state needed.
"""

from __future__ import annotations

import argparse

from .. import INPUT_ERRORS, refuse_input
from . import load_atlas
from .render import render_blame, render_headroom, render_links, render_pages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.atlas",
        description="Resource-attribution views over one atlas snapshot.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_links = sub.add_parser("top-links", help="busiest fabric links")
    p_links.add_argument("snapshot")
    p_links.add_argument("-n", type=int, default=None, help="row limit")

    p_pages = sub.add_parser("top-pages", help="hottest global pages")
    p_pages.add_argument("snapshot")
    p_pages.add_argument("-n", type=int, default=16, help="row limit")

    p_blame = sub.add_parser("blame", help="contention attribution")
    p_blame.add_argument("snapshot")

    p_head = sub.add_parser("headroom", help="capacity headroom / t-to-sat")
    p_head.add_argument("snapshot")

    args = parser.parse_args(argv)
    try:
        snap = load_atlas(args.snapshot)
        if args.command == "top-links":
            print(render_links(snap, n=args.n))
        elif args.command == "top-pages":
            print(render_pages(snap, n=args.n))
        elif args.command == "blame":
            print(render_blame(snap))
        elif args.command == "headroom":
            print(render_headroom(snap))
    except INPUT_ERRORS as exc:
        return refuse_input(args.snapshot, exc)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
