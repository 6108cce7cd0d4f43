"""In-place repair of uncorrectable errors (§3.2/§3.6) — the *repair*
stage of the detect → contain → repair → prevent loop.

An uncorrectable error poisons device bytes; before this module the
only answers were surfacing :class:`~repro.rack.memory.UncorrectableMemoryError`
to the application or restoring a whole fault box.  The
:class:`RepairCoordinator` closes the gap: given a poisoned address it
consults *redundancy sources* in priority order, rewrites the poisoned
page with recovered bytes, clears the poison, and records the outcome
in the rack's fault log.  Wired as the machine's repair handler
(:meth:`~repro.rack.machine.RackMachine.set_repair_handler`), it turns
a fatal access into a bounded retry the application never observes.

Sources are duck-typed: anything with a ``name`` and
``recover_page(ctx, page_addr) -> Optional[bytes]``.  The concrete
sources that understand fault boxes, partial replicas, checkpoints and
FlacFS live in :mod:`repro.core.fault.repair_sources` (they sit above
FlacDK in the layering); this module provides the coordinator plus the
layer-neutral :class:`MirrorSource` — N-modular *data* redundancy,
voting among explicitly mirrored peer copies.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ...rack.machine import NodeContext, RackMachine
from ...rack.memory import UncorrectableMemoryError
from ...telemetry import TELEMETRY as _TEL, span as _span

_SUB = "reliability"

#: Repair granularity: one OS page (matches checkpoint / replica pages).
REPAIR_PAGE = 4096


class RepairSource:
    """Interface of one redundancy source the coordinator can consult."""

    #: Short identifier recorded in the fault log / stats.
    name = "abstract"

    def recover_page(self, ctx: NodeContext, page_addr: int) -> Optional[bytes]:
        """Known-good content of the page at ``page_addr``, or None."""
        raise NotImplementedError


class MirrorSource(RepairSource):
    """N-modular peer copies: vote among explicitly mirrored pages.

    Critical data can be mirrored across fault domains by registering the
    peer page addresses as one group.  Recovery reads every *healthy*
    peer and takes the majority content — the data-plane analogue of
    n-modular execution's output voting: a silently corrupted peer is
    outvoted, a poisoned one abstains.
    """

    name = "nmodular-mirror"

    def __init__(self) -> None:
        #: page addr -> the other pages in its mirror group
        self._peers: Dict[int, List[int]] = {}

    def register_group(self, page_addrs: List[int]) -> None:
        """Declare ``page_addrs`` (page-aligned) as mirrors of one another."""
        for addr in page_addrs:
            if addr % REPAIR_PAGE:
                raise ValueError(f"mirror page {addr:#x} is not page aligned")
        for addr in page_addrs:
            self._peers[addr] = [a for a in page_addrs if a != addr]

    def recover_page(self, ctx: NodeContext, page_addr: int) -> Optional[bytes]:
        peers = self._peers.get(page_addr)
        if not peers:
            return None
        ballots: List[bytes] = []
        for peer in peers:
            try:
                ballots.append(ctx.load(peer, REPAIR_PAGE, bypass_cache=True))
            except UncorrectableMemoryError:
                continue  # poisoned peer abstains
        if not ballots:
            return None
        content, votes = Counter(ballots).most_common(1)[0]
        if votes * 2 <= len(ballots):
            return None  # no strict majority: refuse to guess
        return content


@dataclass
class RepairRecord:
    """Outcome of one repair attempt."""

    addr: int
    page_addr: int
    node_id: int
    ok: bool
    source: str
    at_ns: float


@dataclass
class RepairStats:
    attempted: int = 0
    repaired: int = 0
    unrepairable: int = 0
    by_source: Dict[str, int] = field(default_factory=dict)


class RepairCoordinator:
    """Consults redundancy sources in priority order and rewrites poison.

    ``sources`` are ordered most- to least-preferred; the paper's
    ordering (wired by the kernel) is partial replica, n-modular peer,
    latest checkpoint page, FlacFS block layer.  Install
    :attr:`handler` on the machine to activate retry-after-repair at
    every access site.
    """

    #: software cost of localising the fault + source lookup, per attempt
    overhead_ns = 1500.0

    def __init__(self, machine: RackMachine, sources: Optional[List[RepairSource]] = None) -> None:
        self.machine = machine
        self.sources: List[RepairSource] = list(sources or [])
        self.stats = RepairStats()
        self.records: List[RepairRecord] = []

    # -- the repair path --------------------------------------------------------------

    def repair(self, ctx: NodeContext, rack_addr: int) -> RepairRecord:
        """Attempt in-place repair of the page containing ``rack_addr``."""
        with _span("reliability.repair", ctx=ctx, addr=rack_addr):
            record = self._repair(ctx, rack_addr)
        if _TEL.enabled:
            reg = _TEL.registry
            reg.inc(ctx.node_id, _SUB, "repair.attempt")
            reg.inc(ctx.node_id, _SUB, "repair.ok" if record.ok else "repair.fail")
            reg.inc(ctx.node_id, _SUB, f"repair.source.{record.source}")
        return record

    def _repair(self, ctx: NodeContext, rack_addr: int) -> RepairRecord:
        page = rack_addr & ~(REPAIR_PAGE - 1)
        machine = self.machine
        self.stats.attempted += 1
        ctx.advance(self.overhead_ns)
        if not machine.poisoned_addrs(page, REPAIR_PAGE):
            # raced with another repairer / a full-page overwrite
            record = RepairRecord(rack_addr, page, ctx.node_id, True, "already-clean", ctx.now())
            self.records.append(record)
            return record
        # the sources' own memory traffic must not recurse into repair
        saved, machine._in_repair = machine._in_repair, True
        try:
            for source in self.sources:
                try:
                    content = source.recover_page(ctx, page)
                except UncorrectableMemoryError:
                    continue  # the source's own copy is poisoned
                if content is None:
                    continue
                if len(content) != REPAIR_PAGE:
                    content = content[:REPAIR_PAGE].ljust(REPAIR_PAGE, b"\x00")
                machine.repair_write(ctx.node_id, page, content)
                machine.faults.record_repair(
                    rack_addr, node_id=ctx.node_id, now_ns=ctx.now(), detail=f"source={source.name}"
                )
                self.stats.repaired += 1
                self.stats.by_source[source.name] = self.stats.by_source.get(source.name, 0) + 1
                record = RepairRecord(rack_addr, page, ctx.node_id, True, source.name, ctx.now())
                self.records.append(record)
                return record
        finally:
            machine._in_repair = saved
        self.stats.unrepairable += 1
        record = RepairRecord(rack_addr, page, ctx.node_id, False, "none", ctx.now())
        self.records.append(record)
        return record

    # -- machine hook ------------------------------------------------------------------

    def handler(self, rack_addr: int, node_id: int) -> bool:
        """Signature the machine's retry path expects; True = retry."""
        return self.repair(self.machine.context(node_id), rack_addr).ok

    def install(self) -> "RepairCoordinator":
        self.machine.set_repair_handler(self.handler)
        return self
