"""Capstone: a day in the life of the rack.

One continuous scenario through every subsystem: boot and discovery,
a Redis service, a container start riding the shared page cache, a
serverless chain, a shuffle job, background faults, a node crash with
recovery, and a final audit — all state exactly right at the end.
"""

from repro.apps.containers import ContainerRuntime, ImageSpec, LayerSpec, Registry, RuntimeSpec
from repro.apps.redis import connect_over_flacos
from repro.apps.serverless import FunctionSpec, ServerlessPlatform
from repro.apps.shuffle import FlacShuffle
from repro.bench import build_rig
from repro.core.boot import flatten, rack_description
from repro.core.memory import PAGE_SIZE
from repro.net import TcpNetwork
from repro.rack import FaultKind, rendezvous


def _stage(ctx, payload: bytes) -> bytes:
    return payload + b"!"


def test_a_day_in_the_rack():
    rig = build_rig(global_mem=1 << 27)
    kernel = rig.kernel

    # --- morning: boot & discovery -------------------------------------------
    rom = flatten(rack_description(rig.machine))
    for node in (0, 1):
        assert kernel.context(node).load(kernel.bootrom.base, len(rom), bypass_cache=True) == rom

    # --- a Redis cache comes up ------------------------------------------------
    redis_client, redis_server = connect_over_flacos(kernel.ipc, rig.c0, rig.c1)
    for i in range(20):
        redis_client.request(b"SET", b"user:%d" % i, b"profile-%d" % i)
    assert redis_client.request(b"DBSIZE") == 20

    # --- a container image lands, then starts warm on the other node ------------
    registry = Registry()
    registry.push(
        ImageSpec("svc:1", [LayerSpec("sha256:aa" * 16, 1 << 21)])
    )
    runtime = ContainerRuntime(kernel.fs, registry, RuntimeSpec(runtime_init_ns=1e7))
    cold = runtime.start(rig.c0, "svc:1")
    rendezvous(rig.c0.node.clock, rig.c1.node.clock)
    shared = runtime.start(rig.c1, "svc:1")
    assert cold.kind == "cold" and shared.kind == "flacos-shared"

    # --- a serverless chain built on the same image ------------------------------
    platform = ServerlessPlatform(
        rig.machine, runtime, ipc=kernel.ipc, tcp=TcpNetwork(),
    )
    platform.deploy(FunctionSpec("stage", "svc:1", _stage, exec_ns=50_000))
    result, chain = platform.invoke_chain(
        rig.c0, [("stage", rig.c0), ("stage", rig.c1)], b"req", transport="flacos"
    )
    assert result == b"req!!"

    # --- afternoon: an analytics shuffle through the same FS ----------------------
    shuffle = FlacShuffle(kernel.fs, job_id="daily")
    records = [(b"k%03d" % i, b"v%03d" % i) for i in range(60)]
    shuffle.run_map(rig.c0, 0, records[:30], 2)
    shuffle.run_map(rig.c1, 1, records[30:], 2)
    gathered = []
    for partition in range(2):
        gathered.extend(shuffle.run_reduce(rig.c1, partition, 2))
    assert sorted(gathered) == sorted(records)

    # --- evening: background correctable errors, a crash, a recovery ---------------
    for _ in range(4):
        rig.machine.faults.inject_ce(rig.machine.global_base + 256, now_ns=rig.c0.now())
    kernel.predictor.observe(rig.c0.now() + 1)

    box = kernel.boxes.create_box(rig.c0, "ledger", criticality=2)
    va = box.aspace.mmap(rig.c0, PAGE_SIZE)
    box.aspace.write(rig.c0, va, b"balance=1000")
    kernel.replicator.enable(box)
    kernel.replicator.sync(rig.c0, box)

    rig.machine.crash_node(0)
    report = kernel.recovery.handle_node_crash(rig.c1, dead_node=0)
    assert any(r.box_name == "ledger" for r in report.recoveries)
    assert box.aspace.read(rig.c1, va, 12) == b"balance=1000"

    # node 1 keeps serving Redis: the keyspace lives in the *server*,
    # which runs on node 1 — the crash of the client's node lost nothing
    assert redis_server.execute([b"GET", b"user:7"]) == b"profile-7"

    # --- night: node 0 returns and rejoins cleanly ----------------------------------
    rig.machine.restart_node(0)
    c0_new = rig.machine.context(0)
    # the restarted node reads the still-cached image layer without a pull
    layer_path = "/layers/" + ("sha256:aa" * 16).replace(":", "_")
    loads_before = kernel.fs.page_cache.stats.loads_from_device
    fd = kernel.fs.open(c0_new, layer_path)
    assert len(kernel.fs.read(c0_new, fd, 0, PAGE_SIZE)) == PAGE_SIZE
    assert kernel.fs.page_cache.stats.loads_from_device == loads_before

    log = rig.machine.faults.log
    assert len(log.events(FaultKind.CORRECTABLE)) == 4
    assert len(log.events(FaultKind.NODE_CRASH)) == 1
    assert len(kernel.boxes.boxes) >= 1
    assert kernel.fs.page_cache.stats.hits > 0
