"""Experiment harness: builds rigs, runs measurements, prints the rows
and series the paper's tables and figures report.

Every benchmark in ``benchmarks/`` goes through this module so output
formatting and rig construction stay uniform.  Latencies are *simulated*
nanoseconds from the rack's clocks, not host time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..core.kernel import FlacOS
from ..rack import RackConfig, RackMachine


@dataclass
class Rig:
    """A booted two-node rack with FlacOS, mirroring the paper's testbed."""

    machine: RackMachine
    kernel: FlacOS

    @property
    def c0(self):
        return self.machine.context(0)

    @property
    def c1(self):
        return self.machine.context(1)

    def align(self) -> float:
        """Rendezvous every node clock before a measurement window.

        Boot/format work and causal syncs leave the clocks at different
        values; measuring deltas across unaligned clocks counts that
        skew as latency.  Call this at the start of every timed section.
        """
        from ..rack.clock import rendezvous

        return rendezvous(*(node.clock for node in self.machine.nodes.values()))


def build_rig(
    n_nodes: int = 2,
    topology: str = "dual_direct",
    global_mem: int = 1 << 26,
) -> Rig:
    machine = RackMachine(
        RackConfig(n_nodes=n_nodes, topology=topology, global_mem_size=global_mem, local_mem_size=1 << 23)
    )
    return Rig(machine=machine, kernel=FlacOS.boot(machine))


class Table:
    """Fixed-width result table, printed like the paper reports rows."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *cells) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(f"row has {len(cells)} cells, table has {len(self.columns)} columns")
        self.rows.append([_fmt(c) for c in cells])

    def render(self) -> str:
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in self.rows)) if self.rows else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [f"== {self.title} =="]
        lines.append("  ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        lines.append("  ".join("-" * w for w in widths))
        if not self.rows:
            # zero-row tables still show their header, with an em-dash
            # row marking the absence of data
            lines.append("  ".join("—".ljust(w) for w in widths))
        for row in self.rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def show(self) -> None:
        print("\n" + self.render() + "\n")


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:,.2f}"
    return str(cell)


def check_ratio(
    name: str,
    measured: float,
    low: float,
    high: float,
    tolerance: float = 0.35,
) -> Tuple[bool, str]:
    """Is a measured ratio inside the paper's band (± tolerance)?

    Returns (ok, message); benches assert on ok and print the message
    either way so EXPERIMENTS.md can quote it.
    """
    lo = low * (1 - tolerance)
    hi = high * (1 + tolerance)
    ok = lo <= measured <= hi
    verdict = "within" if ok else "OUTSIDE"
    message = (
        f"{name}: measured {measured:.2f}x, paper band [{low:.2f}, {high:.2f}]x "
        f"-> {verdict} tolerance band [{lo:.2f}, {hi:.2f}]x"
    )
    return ok, message
