"""Lightweight span tracing over the simulated clocks.

A *span* is one timed operation (``fs.read``, ``ipc.rpc.call``,
``chaos.step``) with a begin/end timestamp read from the issuing node's
simulated clock.  A span's parent is the span on top of the open-span
stack when it begins, so a run produces cause-linked trees: a chaos step
contains the repair it triggered contains the source reads the repair
issued.

Two exports:

* **Chrome ``trace_event`` JSON** — complete (``"ph": "X"``) events,
  one ``pid`` per node, loadable in ``chrome://tracing`` / Perfetto;
* **flamegraph-style text summary** — ``root;child;leaf  total_ns  count``
  lines, aggregated by call path, for terminals and CI logs.

The tracer is deterministic: span ids are a resettable counter and all
timestamps are simulated nanoseconds, so two identical runs export
byte-identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .schema import TRACE, check

#: Paths :meth:`TraceBuffer.flame_summary` lists before it folds the rest into a count.
FLAME_ROWS = 40


@dataclass
class Span:
    """One finished (or in-flight) traced operation."""

    span_id: int
    name: str
    node: int
    start_ns: float
    end_ns: float = 0.0
    parent_id: Optional[int] = None
    args: Tuple[Tuple[str, object], ...] = ()

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns


class TraceBuffer:
    """Collects finished spans and tracks the open-span stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 1

    # -- recording -------------------------------------------------------------

    def begin(self, name: str, node: int, start_ns: float, **args) -> Span:
        """Open a span; its parent is the top of the open-span stack (none:
        a root)."""
        span = Span(
            span_id=self._next_id,
            name=name,
            node=node,
            start_ns=start_ns,
            parent_id=self._stack[-1].span_id if self._stack else None,
            args=tuple(sorted(args.items())),
        )
        self._next_id += 1
        self._stack.append(span)
        return span

    @staticmethod
    def annotate(span: Span, **args) -> None:
        """Merge late-bound args (e.g. an outcome) into an open span."""
        span.args = tuple(sorted(dict(span.args, **args).items()))

    def end(self, span: Span, end_ns: float) -> None:
        # close any forgotten children first so the stack stays consistent
        while self._stack and self._stack[-1] is not span:
            orphan = self._stack.pop()
            orphan.end_ns = max(orphan.start_ns, end_ns)
            self.spans.append(orphan)
        if self._stack:
            self._stack.pop()
        span.end_ns = max(span.start_ns, end_ns)
        self.spans.append(span)

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self._next_id = 1

    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    # -- export ----------------------------------------------------------------

    def to_chrome_trace(self) -> dict:
        """Chrome ``trace_event`` JSON object (the JSON Object Format).

        One complete (``"X"``) event per span; ``pid`` is the node
        (``pid 0`` hosts rack-wide spans as node ``-1`` is not a valid
        pid in the viewers), ``tid`` is the span's root cause so each
        causal tree gets its own track.  Timestamps are microseconds, as
        the format requires; sub-ns precision survives as fractions.
        """
        events = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": self._pid(node),
                "tid": 0,
                "args": {"name": f"node{node}" if node >= 0 else "rack"},
            }
            for node in sorted({s.node for s in self.spans})
        ]
        roots = self._root_of()
        for span in sorted(self.spans, key=lambda s: (s.start_ns, s.span_id)):
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": span.start_ns / 1000.0,
                    "dur": span.duration_ns / 1000.0,
                    "pid": self._pid(span.node),
                    "tid": roots[span.span_id],
                    "args": dict(span.args, span_id=span.span_id,
                                 parent_id=span.parent_id),
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ns"}

    def flame_summary(self) -> str:
        """Flamegraph-style folded-stack summary, hottest paths first."""
        totals: Dict[Tuple[str, ...], List[float]] = {}
        paths = self._paths()
        for span in self.spans:
            path = paths[span.span_id]
            entry = totals.setdefault(path, [0.0, 0])
            entry[0] += span.duration_ns
            entry[1] += 1
        if not totals:
            return "(no spans recorded)"
        rows = sorted(totals.items(), key=lambda kv: (-kv[1][0], kv[0]))
        width = max(len(";".join(p)) for p, _ in rows[:FLAME_ROWS])
        lines = [f"{'path':<{width}}  {'total_ns':>14}  {'count':>7}"]
        for path, (total, count) in rows[:FLAME_ROWS]:
            lines.append(f"{';'.join(path):<{width}}  {total:>14,.1f}  {count:>7}")
        if len(rows) > FLAME_ROWS:
            lines.append(f"... {len(rows) - FLAME_ROWS} more paths")
        return "\n".join(lines)

    # -- critical path ---------------------------------------------------------

    def critical_path(self) -> List[Span]:
        """The heaviest causal chain, root to leaf.

        Walks every cause-linked tree and returns the root→leaf chain
        maximising total span duration — the request-path answer to
        "where did the time go".  Deterministic: ties break toward the
        smallest span id, so two identical runs report the same chain.
        """
        if not self.spans:
            return []
        by_id = self._by_id()
        kids: Dict[int, List[Span]] = {}
        roots: List[Span] = []
        for s in self.spans:
            if s.parent_id is not None and s.parent_id in by_id:
                kids.setdefault(s.parent_id, []).append(s)
            else:
                roots.append(s)
        memo: Dict[int, Tuple[float, List[Span]]] = {}

        def solve(span: Span) -> Tuple[float, List[Span]]:
            cached = memo.get(span.span_id)
            if cached is not None:
                return cached
            best_total, best_path = 0.0, []
            for child in sorted(kids.get(span.span_id, ()), key=lambda c: c.span_id):
                total, path = solve(child)
                if total > best_total:
                    best_total, best_path = total, path
            result = (span.duration_ns + best_total, [span] + best_path)
            memo[span.span_id] = result
            return result

        top: Tuple[float, List[Span]] = (-1.0, [])
        for root in sorted(roots, key=lambda r: r.span_id):
            total, path = solve(root)
            if total > top[0]:
                top = (total, path)
        return top[1]

    def critical_path_summary(self) -> str:
        """Terminal-friendly rendering of :meth:`critical_path`."""
        path = self.critical_path()
        if not path:
            return "(no spans recorded)"
        total = sum(s.duration_ns for s in path)
        lines = [f"critical path: {len(path)} spans, {total:,.1f} ns"]
        for depth, s in enumerate(path):
            where = f"node{s.node}" if s.node >= 0 else "rack"
            lines.append(
                f"{'  ' * depth}{s.name} [{where}] "
                f"start={s.start_ns:,.1f} dur={s.duration_ns:,.1f}"
            )
        return "\n".join(lines)

    # -- internals -------------------------------------------------------------

    @staticmethod
    def _pid(node: int) -> int:
        return node if node >= 0 else 0

    def _by_id(self) -> Dict[int, Span]:
        return {s.span_id: s for s in self.spans}

    def _root_of(self) -> Dict[int, int]:
        by_id = self._by_id()
        roots: Dict[int, int] = {}

        def resolve(span: Span) -> int:
            cached = roots.get(span.span_id)
            if cached is not None:
                return cached
            if span.parent_id is None or span.parent_id not in by_id:
                root = span.span_id
            else:
                root = resolve(by_id[span.parent_id])
            roots[span.span_id] = root
            return root

        for span in self.spans:
            resolve(span)
        return roots

    def _paths(self) -> Dict[int, Tuple[str, ...]]:
        """Span id -> the span names from its root down.  A parent begins,
        so is numbered, before its children; one whose parent was not
        recorded is a root."""
        paths: Dict[int, Tuple[str, ...]] = {}
        for span in sorted(self.spans, key=lambda s: s.span_id):
            paths[span.span_id] = paths.get(span.parent_id, ()) + (span.name,)
        return paths


def validate_chrome_trace(trace: dict) -> int:
    """The event count of a Chrome ``trace_event`` JSON object that
    :data:`~repro.telemetry.schema.TRACE` holds all of, else ``ValueError``."""
    check(trace, TRACE, "trace")
    return len(trace["traceEvents"])
