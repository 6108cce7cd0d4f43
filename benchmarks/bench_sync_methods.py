"""E3 — §3.2 ablation: synchronisation methods on non-coherent memory.

A shared object is driven from every node with a read-mostly mix (the
kernel-metadata access pattern FlacOS cares about): 90% reads, 10%
linearisable mutations.  The table reports wall-clock makespan per
operation under the four disciplines FlacDK offers.

The structural result the paper's design rests on: with a lock, *every
read* pays interconnect round trips on the one contended word; the
lock-free families confine remote traffic to mutations (replication,
RCU) or to one mailbox per client (delegation), so read-mostly
workloads run at local speed.
"""

from repro.bench import Table, build_rig
from repro.flacdk.alloc import EpochReclaimer, SharedHeap
from repro.flacdk.sync import (
    DelegationService,
    GlobalSpinLock,
    NodeReplication,
    OperationLog,
    RcuCell,
)
from repro.flacdk.sync.delegation import HANDLER_COST_NS
from repro.rack.clock import rendezvous

OPS = 100
READ_RATIO = 0.9
NODE_COUNTS = (2, 4, 8)


def _rig(n_nodes):
    rig = build_rig(
        n_nodes=n_nodes, topology="single_switch" if n_nodes > 2 else "dual_direct"
    )
    ctxs = [rig.machine.context(i) for i in range(n_nodes)]
    rig.align()
    return rig, ctxs, rig.kernel.arena


def _schedule(n_nodes):
    """Deterministic (node, is_read) schedule shared by all methods."""
    ops = []
    for i in range(OPS):
        node = i % n_nodes
        is_read = (i % 10) != 0  # 90% reads
        ops.append((node, is_read))
    return ops


def _makespan(ctxs, t0, runner, schedule):
    for node, is_read in schedule:
        runner(ctxs[node], is_read)
    return (max(c.now() for c in ctxs) - t0) / len(schedule)


def run_spinlock(n_nodes):
    """Both reads and writes take the global lock (the only safe way to
    read a multi-word object that is mutated in place)."""
    rig, ctxs, arena = _rig(n_nodes)
    lock = GlobalSpinLock(arena.take(8, align=8)).format(ctxs[0])
    counter = arena.take(8, align=8)
    ctxs[0].atomic_store(counter, 0)
    t0 = max(c.now() for c in ctxs)

    def op(ctx, is_read):
        with lock.held(ctx):
            value = ctx.atomic_load(counter)
            if not is_read:
                ctx.atomic_store(counter, value + 1)
        # the critical section serialises everyone behind it
        rendezvous(*(c.node.clock for c in ctxs))

    return _makespan(ctxs, t0, op, _schedule(n_nodes))


def run_replication(n_nodes):
    rig, ctxs, arena = _rig(n_nodes)
    log = OperationLog(arena.take(OperationLog.region_size(OPS + 8)), OPS + 8).format(ctxs[0])
    nr = NodeReplication(log, factory=lambda: [0], apply_fn=_apply_add)

    t0 = max(c.now() for c in ctxs)

    def op(ctx, is_read):
        replica = nr.replica(ctx)
        if is_read:
            replica.read_local(lambda s: s[0])  # common path: local
        else:
            replica.execute(ctx, 1)

    return _makespan(ctxs, t0, op, _schedule(n_nodes))


def _apply_add(state, op):
    state[0] += op
    return state[0]


def run_delegation(n_nodes):
    rig, ctxs, arena = _rig(n_nodes)
    state = [0]

    def handler(request: bytes) -> bytes:
        if request == b"inc":
            state[0] += 1
        return state[0].to_bytes(8, "little")

    svc = DelegationService(
        arena.take(DelegationService.region_size(n_nodes)), 0, n_nodes, handler
    ).format(ctxs[0])
    t0 = max(c.now() for c in ctxs)

    def op(ctx, is_read):
        request = b"get" if is_read else b"inc"
        if ctx.node_id == 0:  # owner fast path
            ctx.advance(HANDLER_COST_NS)
            handler(request)
        else:
            svc.call(ctx, ctxs[0], request)

    return _makespan(ctxs, t0, op, _schedule(n_nodes))


def run_rcu(n_nodes):
    rig, ctxs, arena = _rig(n_nodes)
    heap = SharedHeap(arena.take(1 << 21), 1 << 21).format(ctxs[0])
    reclaimer = EpochReclaimer(
        arena.take(EpochReclaimer.region_size(n_nodes)), n_nodes
    ).format(ctxs[0])
    cell = RcuCell(arena.take(8, align=8), heap, reclaimer).format(ctxs[0])
    cell.publish(ctxs[0], (0).to_bytes(8, "little"))
    t0 = max(c.now() for c in ctxs)
    step = [0]

    def op(ctx, is_read):
        if is_read:
            cell.read(ctx)
        else:
            cell.update(
                ctx,
                lambda cur: (int.from_bytes(cur, "little") + 1).to_bytes(8, "little"),
            )
        step[0] += 1
        if step[0] % 16 == 0:
            reclaimer.advance_and_reclaim(ctx)

    return _makespan(ctxs, t0, op, _schedule(n_nodes))


def run_bounded(n_nodes):
    """Bounded incoherence ([49]): reads tolerate 10 us of staleness."""
    from repro.flacdk.sync import BoundedStaleCell

    rig, ctxs, arena = _rig(n_nodes)
    cell = BoundedStaleCell(arena.take(128), capacity=8, bound_ns=10_000.0).format(ctxs[0])
    cell.write(ctxs[0], (0).to_bytes(8, "little"))
    t0 = max(c.now() for c in ctxs)

    def op(ctx, is_read):
        if is_read:
            cell.read(ctx, 8)
        else:
            current = int.from_bytes(cell.read_fresh(ctx, 8), "little")
            cell.write(ctx, (current + 1).to_bytes(8, "little"))

    return _makespan(ctxs, t0, op, _schedule(n_nodes))


METHODS = {
    "spinlock (strawman)": run_spinlock,
    "replication (NR)": run_replication,
    "delegation (ffwd)": run_delegation,
    "quiescence (RCU)": run_rcu,
    "bounded staleness [49]": run_bounded,
}


def run_all():
    return {label: {n: method(n) for n in NODE_COUNTS} for label, method in METHODS.items()}


def test_sync_methods(emit):
    results = run_all()
    table = Table(
        "E3 — 90/10 read/write mix: wall makespan per op (us)",
        ["method"] + [f"{n} nodes" for n in NODE_COUNTS],
    )
    for label, by_nodes in results.items():
        table.add_row(label, *(f"{by_nodes[n] / 1000:.2f}" for n in NODE_COUNTS))
    notes = []
    for n in NODE_COUNTS:
        best_label = min(
            (m for m in METHODS if not m.startswith("spinlock")),
            key=lambda m: results[m][n],
        )
        notes.append(
            f"{n} nodes: {best_label} beats the lock by "
            f"{results['spinlock (strawman)'][n] / results[best_label][n]:.2f}x"
        )
    notes.append(
        "note: bounded staleness trades consistency for cost — its reads may "
        "lag writers by up to 10 us, a contract the linearisable methods never relax"
    )
    emit("E3_sync_methods", table.render() + "\n" + "\n".join(notes))
    for n in NODE_COUNTS:
        lock_free_best = min(results[m][n] for m in METHODS if not m.startswith("spinlock"))
        assert lock_free_best < results["spinlock (strawman)"][n]


def test_replication_reads_are_local():
    """The replication family's common path: reads touch no shared memory."""
    rig, ctxs, arena = _rig(2)
    log = OperationLog(arena.take(OperationLog.region_size(64)), 64).format(ctxs[0])
    nr = NodeReplication(log, factory=lambda: [0], apply_fn=_apply_add)
    nr.replica(ctxs[1]).execute(ctxs[1], 5)
    replica = nr.replica(ctxs[1])
    before = ctxs[1].now()
    for _ in range(100):
        replica.read_local(lambda s: s[0])
    assert ctxs[1].now() == before  # zero simulated cost: purely local
