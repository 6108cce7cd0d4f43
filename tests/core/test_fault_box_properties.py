"""Property tests for fault-box snapshot/restore fidelity.

The box abstraction's core promise: whatever an application's pages
held at snapshot time is exactly what restore rebuilds — regardless of
which pages were written, in what order, from which node, or how badly
the state was mangled in between.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import build_rig
from repro.core.memory import PAGE_SIZE

N_PAGES = 4

_writes = st.lists(
    st.tuples(
        st.integers(0, 1),  # writing node
        st.integers(0, N_PAGES * PAGE_SIZE - 200),  # offset
        st.binary(min_size=1, max_size=200),
    ),
    min_size=1,
    max_size=15,
)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.data_too_large])
@given(writes=_writes, corruptions=_writes)
def test_restore_is_exact(writes, corruptions):
    rig = build_rig()
    kernel = rig.kernel
    box = kernel.boxes.create_box(rig.c0, "prop", criticality=1)
    kernel.memory.install(rig.c1, box.aspace)
    va = box.aspace.mmap(rig.c0, N_PAGES * PAGE_SIZE)

    shadow = bytearray(N_PAGES * PAGE_SIZE)
    ctxs = (rig.c0, rig.c1)
    for node, offset, data in writes:
        # the cross-node write discipline: refresh (drop stale lines)
        # before a partial write, publish after.  Hypothesis found the
        # lost-update false-sharing bug when refresh was skipped — which
        # is the substrate being faithful, not the box being wrong.
        box.aspace.refresh(ctxs[node], va + offset, len(data))
        box.aspace.write(ctxs[node], va + offset, data)
        box.aspace.publish(ctxs[node], va + offset, len(data))
        shadow[offset : offset + len(data)] = data

    kernel.boxes.snapshot(rig.c0, box)

    # mangle the live state arbitrarily
    for node, offset, data in corruptions:
        box.aspace.write(ctxs[node], va + offset, data)
        box.aspace.publish(ctxs[node], va + offset, len(data))

    # restore on either node; the snapshot state must come back exactly
    restorer = ctxs[len(writes) % 2]
    kernel.boxes.restore(restorer, box)
    touched_pages = {offset // PAGE_SIZE for _, offset, data in writes} | {
        (offset + len(data) - 1) // PAGE_SIZE for _, offset, data in writes
    }
    for page in touched_pages:
        got = box.aspace.read(restorer, va + page * PAGE_SIZE, PAGE_SIZE)
        assert got == bytes(shadow[page * PAGE_SIZE : (page + 1) * PAGE_SIZE])


@settings(max_examples=15, deadline=None)
@given(writes=_writes)
def test_restore_after_crash_is_exact(writes):
    rig = build_rig()
    kernel = rig.kernel
    box = kernel.boxes.create_box(rig.c0, "crashy", criticality=1)
    va = box.aspace.mmap(rig.c0, N_PAGES * PAGE_SIZE)
    shadow = bytearray(N_PAGES * PAGE_SIZE)
    for _, offset, data in writes:
        box.aspace.write(rig.c0, va + offset, data)
        shadow[offset : offset + len(data)] = data
    kernel.boxes.snapshot(rig.c0, box)
    rig.machine.crash_node(0)
    kernel.boxes.restore(rig.c1, box)
    for _, offset, data in writes:
        assert box.aspace.read(rig.c1, va + offset, len(data)) == bytes(
            shadow[offset : offset + len(data)]
        )
