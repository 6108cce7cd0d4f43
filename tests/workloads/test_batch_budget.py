"""Host-cost budgets that do not depend on the host.

**Calls.**  Python calls made *by this repository's code* during one
smoke-scale rep of a benchmark workload.  ``cProfile`` counts repeat
exactly from run to run, and counting only frames whose code lives under
``src/repro/`` keeps numpy's internals out of the number.

* ``chaos-quiet`` (the crash-storm campaign, 3 tenants, resilient engine,
  20,020 offered requests in 738 events — small batches, so the fixed cost
  of a batch is the whole cost): 55,243 before the batch path was trimmed
  to what a batch uses (EXPERIMENTS E26), 48,353 after, 46,478 with a tenant's
  slab held as one resolved window (E28), 47,136 before a batch stopped
  calling back into Python and 37,814 after (E49: a tuple-keyed event heap,
  one context per node, a slot count read from its index vector, a fabric
  route cached by node id), 37,767 with links that bank no saturated
  windows (E51); a change that re-adds a per-batch pass fails
  here instead of waiting for a ±7% wall-clock number to notice.
* ``incidents-observed`` (first scenario, every telemetry sink on): 72,348
  while each atlas drain folded the line sketch nobody read (7,191 evicting
  ``SpaceSaving.offer`` calls), 65,534 with lines folded on read (E27),
  60,582 after E28, 60,236 after E29, 57,944 with one reader of the dump
  (E31), 53,461 with no anomaly detectors and no per-window histogram
  deltas (E44), 49,817 before E49, 43,790 after and 43,754 with links
  that bank no saturated windows (E51).
* ``redis-closed`` (the Fig. 4 path, 1,200 closed-loop requests, single ops
  only): 212,302 while a cached miss passed the gate twice and a line burst
  was priced by a chain of charge helpers, 209,465 with one gate and one
  charge (E29), 142,865 with the hit verdict read inline and one-pass line
  runs (E37); a re-gate costs ~2,700 calls here, a returning charge helper
  ~4,000.

**Bytecodes.**  Python opcode events (``sys.settrace`` with
``f_trace_opcodes``) per Fig. 4 request, over 100 warm ``SET`` + ``GET``
requests per transport (keys ``slice:000010``-``slice:000059``, values from
``ValueGenerator(512, sigma=1.0)``; ``slice:000000``-``slice:000009`` warm
the rig untraced).  This is the yardstick of the single-op plane, not calls:
on CPython 3.11 a Python-to-Python call is cheap, and a copy of the rack
that bound ``NodeContext``'s ops as ``functools.partial`` cut the smoke
calls of ``redis-closed`` from 209,465 to 178,187 without moving its wall
beyond the noise — the work was inside the frames.  Counted by this test on
CPython 3.11 (other versions skip it): 10,308.08 (FlacOS) and 2,039.4 (TCP)
per request while every single op re-derived node, TLB entry and codec
through its gate and every cache run walked its lines one by one; 7,874.46
and 1,670.24 with the hit verdict read straight from the TLB entry, one-pass
line runs and a one-loop RESP command decoder (EXPERIMENTS E37).

**numpy passes.**  The same profile, read for C-level numpy calls, on
one smoke ``traffic-read`` rep (4 tenants, 100,257 offered requests in 245
batches): a tenant's slab is a window resolved once (EXPERIMENTS E28), so
a batch sorts nothing — ``ndarray.argsort`` 245 → 0 — and reduces only
its index bound and the engine's own sums — ``ufunc.reduce`` 1,968 → 996.
A per-batch min/max or last-writer sort coming back is +245 or more.  On
one smoke ``traffic-write`` rep (2 tenants, 40,094 offered requests), a SET
batch hands over its tenant's row table and runs no last-writer pass
(EXPERIMENTS E42): ``ufunc.at`` 318 → 0, ``ndarray.take`` 1,053 → 477.

**Callbacks into Python.**  On one smoke ``chaos-quiet`` rep, C code
calling back into Python: ``heapq`` ordered events through
``Event.__lt__`` (2,637 calls) until the heap held ``(when_ns, seq,
event)`` tuples, and frames in numpy's own ``.py`` files numbered 4,022
(1,319 of them ``ndarray.max``'s ``_amax`` in a slot bound check) before
E49 and 2,703 after — nearly all of them ``np.prod`` inside
``Generator.integers``, which no caller avoids.  Counted on CPython 3.11
only, as the bytecodes are: another interpreter nests numpy's wrappers
in other frames.

**Imports.**  A benchmark process must not load ``networkx`` or ``scipy``:
the fabric graph is ours (E27: 15 MB of every workload's resident set and
0.1+ s of start-up when it was not), and a transitive import would bring
both back without any test noticing.
"""

import cProfile
import importlib.util
import os
import pathlib
import pstats
import subprocess
import sys

import numpy
import pytest

import repro
from repro.apps.redis import connect_over_flacos, connect_over_tcp
from repro.bench.harness import build_rig
from repro.net.tcp import TcpNetwork
from repro.workloads.generators import ValueGenerator

pytestmark = pytest.mark.resilience

PERF = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "perf"
SRC = str(pathlib.Path(repro.__file__).resolve().parent) + "/"
NUMPY = str(pathlib.Path(numpy.__file__).resolve().parent) + "/"
SMOKE_SCALE = 10  # benchmarks/perf/run.py --smoke


def _workload(name):
    spec = importlib.util.spec_from_file_location("perf_workloads", PERF / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS[name]


def _one_smoke_rep(name):
    """``(outcome, calls under src/repro)`` of one rep after one warm-up."""
    outcome, stats = _profiled_smoke_rep(name)
    calls = sum(n_calls for (filename, _line, _name), (_prim, n_calls, *_) in stats.items()
                if filename.startswith(SRC))
    return outcome, calls


def _profiled_smoke_rep(name):
    """``(outcome, pstats rows)`` of one rep after one warm-up."""
    workload = _workload(name)
    workload.run(workload.setup(0, SMOKE_SCALE))  # warm-up: imports, lazy set-up
    state = workload.setup(0, SMOKE_SCALE)
    profile = cProfile.Profile()
    profile.enable()
    try:
        outcome = workload.run(state)
    finally:
        profile.disable()
    assert not outcome.problems
    return outcome, pstats.Stats(profile).stats


def test_chaos_quiet_rep_stays_inside_its_call_budget():
    outcome, calls = _one_smoke_rep("chaos-quiet")
    assert (outcome.offered, outcome.detail["events_dispatched"]) == (20_020, 738)
    assert calls <= 38_145, (
        f"{calls:,} Python calls under src/repro for one chaos-quiet smoke rep "
        f"(ceiling 38,145): a per-batch pass came back"
    )


def test_incidents_observed_rep_stays_inside_its_call_budget():
    outcome, calls = _one_smoke_rep("incidents-observed")
    assert outcome.offered == 6_065
    assert calls <= 44_192, (
        f"{calls:,} Python calls under src/repro for one incidents-observed smoke "
        f"rep (ceiling 44,192): an observation cost nobody reads came back"
    )


def test_chaos_quiet_rep_calls_back_into_python_only_where_numpy_must():
    if sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11):
        pytest.skip("frame counts are those of the CPython 3.11 the ceiling was taken on")
    outcome, stats = _profiled_smoke_rep("chaos-quiet")
    assert outcome.offered == 20_020
    lt = sum(n_calls for (filename, _line, name), (_prim, n_calls, *_) in stats.items()
             if filename.startswith(SRC) and name == "__lt__")
    assert lt == 0, f"{lt:,} __lt__ calls: the event heap compares objects again"
    frames = sum(n_calls for (filename, _line, _name), (_prim, n_calls, *_) in stats.items()
                 if filename.startswith(NUMPY) and filename.endswith(".py"))
    assert frames <= 2_730, (
        f"{frames:,} frames in numpy's Python files for one chaos-quiet smoke rep "
        f"(2,703 when written, 4,022 with ndarray.max in the slot bound check): "
        f"a per-batch numpy wrapper came back"
    )


def test_redis_closed_rep_stays_inside_its_call_budget():
    outcome, calls = _one_smoke_rep("redis-closed")
    assert outcome.offered == 1_200
    assert calls <= 144_294, (
        f"{calls:,} Python calls under src/repro for one redis-closed smoke rep "
        f"(ceiling 144,294): a second gate or a charge helper came back"
    )


#: (wiring, ceiling) per transport: the count on CPython 3.11 when written
#: (7,874.46 and 1,670.24) + 1%.
_FIG4 = {
    "flacos": (lambda rig: connect_over_flacos(rig.kernel.ipc, rig.c0, rig.c1)[0], 7_953.20),
    "tcp": (lambda rig: connect_over_tcp(TcpNetwork(), rig.c0, rig.c1)[0], 1_686.94),
}


def _opcodes_per_request(transport):
    """Opcode events per request of 100 warm ``SET`` + ``GET`` requests."""
    client = _FIG4[transport][0](build_rig())
    values = ValueGenerator(512, sigma=1.0)
    requests = []
    for key in (b"slice:%06d" % i for i in range(60)):
        requests += [(b"SET", key, values.value_for(key)), (b"GET", key)]
    for parts in requests[:20]:
        client.request(*parts)
    events = 0

    def count(frame, event, arg):
        nonlocal events
        frame.f_trace_opcodes = True
        if event == "opcode":
            events += 1
        return count

    sys.settrace(count)
    try:
        for parts in requests[20:]:  # this frame is not traced: only the requests count
            client.request(*parts)
    finally:
        sys.settrace(None)
    return events / 100


@pytest.mark.parametrize("transport", sorted(_FIG4))
def test_fig4_request_stays_inside_its_bytecode_budget(transport):
    if sys.gettrace() is not None:
        pytest.skip("another tracer (coverage, a debugger) owns sys.settrace")
    if sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11):
        pytest.skip("opcode counts are those of the CPython 3.11 the ceilings were taken on")
    per_request = _opcodes_per_request(transport)
    ceiling = _FIG4[transport][1]
    assert per_request <= ceiling, (
        f"{per_request:,.2f} opcodes per {transport} request (ceiling {ceiling:,}): "
        f"a hit path went back through the gate or a line run back to one line at a time"
    )


def _builtin(stats, method):
    """C-level calls of ``method``: cProfile files them under "~"."""
    return sum(n_calls for (filename, _line, name), (_prim, n_calls, *_) in stats.items()
               if filename == "~" and method in name)


def test_traffic_read_rep_sorts_nothing_and_reduces_once_per_reference():
    outcome, stats = _profiled_smoke_rep("traffic-read")
    assert outcome.offered == 100_257
    assert _builtin(stats, "'argsort' of 'numpy.ndarray'") == 0, "a per-batch sort came back"
    reduces = _builtin(stats, "'reduce' of 'numpy.ufunc'")
    assert reduces <= 1_045, (
        f"{reduces:,} ufunc.reduce calls for one traffic-read smoke rep (996 when "
        f"written, 1,968 before the held window): a per-batch min/max came back"
    )


def test_traffic_write_rep_runs_no_last_writer_pass():
    outcome, stats = _profiled_smoke_rep("traffic-write")
    assert outcome.offered == 40_094
    assert _builtin(stats, "'at' of 'numpy.ufunc'") == 0, "a last-writer pass came back"
    takes = _builtin(stats, "'take' of 'numpy.ndarray'")
    assert takes <= 481, (
        f"{takes:,} ndarray.take calls for one traffic-write smoke rep (477 when "
        f"written, 1,053 with per-batch payload assembly): a per-batch row copy came back"
    )


_GUARD = """
import sys
sys.path.insert(0, sys.argv[1])
import repro.bench.harness as harness
harness.build_rig()
import workloads
workload = workloads.WORKLOADS["chaos-quiet"]
outcome = workload.run(workload.setup(0, int(sys.argv[2])))
assert not outcome.problems, outcome.problems
print(",".join(m for m in ("networkx", "scipy") if m in sys.modules))
"""


def test_a_benchmark_process_loads_neither_networkx_nor_scipy():
    done = subprocess.run(
        [sys.executable, "-c", _GUARD, str(PERF), str(SMOKE_SCALE)],
        env={**os.environ, "PYTHONPATH": str(pathlib.Path(SRC).parent)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "", f"a chaos-quiet process imported {done.stdout.strip()}"
