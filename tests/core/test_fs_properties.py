"""Property-based tests: FlacFS against a model filesystem.

Hypothesis drives random operation sequences — creates, writes at
arbitrary offsets from alternating nodes, reads, fsyncs, evictions —
against both FlacFS and a trivial in-memory model.
Every read must agree, from every node, including after write-back +
eviction forces the data through the block device.
"""

from typing import Dict

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fs import FlacFS, PAGE_SIZE
from repro.flacdk.arena import Arena
from repro.rack import RackConfig, RackMachine
from tests.core.test_fs import evict_file


class ModelFS:
    """The specification: a dict of byte strings."""

    def __init__(self) -> None:
        self.files: Dict[str, bytearray] = {}

    def create(self, path: str) -> bool:
        if path in self.files:
            return False
        self.files[path] = bytearray()
        return True

    def write(self, path: str, offset: int, data: bytes) -> None:
        blob = self.files[path]
        if len(blob) < offset + len(data):
            blob.extend(bytes(offset + len(data) - len(blob)))
        blob[offset : offset + len(data)] = data

    def read(self, path: str, offset: int, size: int) -> bytes:
        blob = self.files.get(path, b"")
        return bytes(blob[offset : offset + size])


_PATHS = st.sampled_from(["/a", "/b", "/c"])

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("write"), _PATHS, st.integers(0, 3 * PAGE_SIZE), st.binary(min_size=1, max_size=600)),
        st.tuples(st.just("read"), _PATHS, st.integers(0, 3 * PAGE_SIZE), st.integers(1, 600)),
        st.tuples(st.just("fsync"), _PATHS, st.just(0), st.just(b"")),
        st.tuples(st.just("evict"), _PATHS, st.just(0), st.just(b"")),
    ),
    max_size=25,
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.data_too_large])
@given(ops=_OPS)
def test_flacfs_matches_model(ops):
    machine = RackMachine(RackConfig(n_nodes=2, global_mem_size=1 << 26))
    arena = Arena(machine.global_base, machine.global_size)
    fs = FlacFS(machine, arena)
    ctxs = [machine.context(0), machine.context(1)]
    model = ModelFS()
    fds: Dict[str, int] = {}

    for i, (verb, path, offset, payload) in enumerate(ops):
        ctx = ctxs[i % 2]
        if path not in fds:
            model.create(path)
            fds[path] = fs.open(ctx, path, create=True)
        fd = fds[path]
        if verb == "write":
            fs.write(ctx, fd, offset, payload)
            model.write(path, offset, payload)
        elif verb == "read":
            size = payload if isinstance(payload, int) else 64
            assert fs.read(ctx, fd, offset, size) == model.read(path, offset, size)
        elif verb == "fsync":
            fs.fsync(ctx)
        elif verb == "evict":
            fs.fsync(ctx)  # dirty pages must be written back first
            inode = fs.stat(ctx, path)
            n_pages = (inode.size + PAGE_SIZE - 1) // PAGE_SIZE
            evict_file(fs, ctx, inode.ino, n_pages)
            fs.reclaimer.advance_and_reclaim(ctx)

    # final audit: every byte of every file agrees, from both nodes
    for path, fd in fds.items():
        size = len(model.files[path])
        for ctx in ctxs:
            assert fs.read(ctx, fd, 0, size) == model.read(path, 0, size)
        assert fs.stat(ctxs[0], path).size == size


@settings(max_examples=15, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 2 * PAGE_SIZE), st.binary(min_size=1, max_size=500)),
        min_size=1,
        max_size=12,
    )
)
def test_data_survives_full_eviction_cycle(writes):
    """Write (interleaved nodes) -> fsync -> evict everything -> re-read
    from the device: bytes must be identical."""
    machine = RackMachine(RackConfig(n_nodes=2, global_mem_size=1 << 26))
    arena = Arena(machine.global_base, machine.global_size)
    fs = FlacFS(machine, arena)
    c0, c1 = machine.context(0), machine.context(1)
    fd = fs.open(c0, "/cycle", create=True)
    shadow = bytearray()
    for i, (offset, data) in enumerate(writes):
        ctx = (c0, c1)[i % 2]
        fs.write(ctx, fd, offset, data)
        if len(shadow) < offset + len(data):
            shadow.extend(bytes(offset + len(data) - len(shadow)))
        shadow[offset : offset + len(data)] = data
    fs.fsync(c0)
    ino = fs.stat(c0, "/cycle").ino
    n_pages = (len(shadow) + PAGE_SIZE - 1) // PAGE_SIZE
    assert evict_file(fs, c0, ino, n_pages) >= 1  # holes were never cached
    fd1 = fs.open(c1, "/cycle")
    assert fs.read(c1, fd1, 0, len(shadow)) == bytes(shadow)


@settings(max_examples=15, deadline=None)
@given(
    names=st.lists(
        st.text(alphabet="abcdefgh", min_size=1, max_size=6), min_size=1, max_size=8, unique=True
    )
)
def test_namespace_operations_consistent_across_nodes(names):
    machine = RackMachine(RackConfig(n_nodes=2, global_mem_size=1 << 26))
    arena = Arena(machine.global_base, machine.global_size)
    fs = FlacFS(machine, arena)
    c0, c1 = machine.context(0), machine.context(1)
    for i, name in enumerate(names):
        fs.open((c0, c1)[i % 2], f"/{name}", create=True)
    assert all(fs.exists(c, f"/{n}") for c in (c0, c1) for n in names)
