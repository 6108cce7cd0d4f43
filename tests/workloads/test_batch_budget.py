"""A host-cost budget that does not depend on the host: Python calls made
*by this repository's code* during one smoke-scale rep of the benchmark's
``chaos-quiet`` workload (the crash-storm campaign, 3 tenants, resilient
engine, 20,020 offered requests in 738 events — small batches, so the
fixed cost of a batch is the whole cost).

``cProfile`` counts repeat exactly from run to run, and counting only
frames whose code lives under ``src/repro/`` keeps numpy's internals out
of the number.  55,243 before the batch path was trimmed to what a batch
uses (EXPERIMENTS E26), 48,347 after; a change that re-adds a per-batch
pass fails here instead of waiting for a ±7% wall-clock number to notice.
"""

import cProfile
import importlib.util
import pathlib
import pstats
import sys

import pytest

import repro

pytestmark = pytest.mark.resilience

PERF = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "perf"
SRC = str(pathlib.Path(repro.__file__).resolve().parent) + "/"
SMOKE_SCALE = 10  # benchmarks/perf/run.py --smoke

CEILING = 50_000


def _chaos_quiet():
    spec = importlib.util.spec_from_file_location("perf_workloads", PERF / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS["chaos-quiet"]


def test_chaos_quiet_rep_stays_inside_its_call_budget():
    workload = _chaos_quiet()
    workload.run(workload.setup(0, SMOKE_SCALE))  # warm-up: imports, lazy set-up
    state = workload.setup(0, SMOKE_SCALE)
    profile = cProfile.Profile()
    profile.enable()
    try:
        outcome = workload.run(state)
    finally:
        profile.disable()
    assert not outcome.problems
    assert (outcome.offered, outcome.detail["events_dispatched"]) == (20_020, 738)
    calls = sum(
        n_calls
        for (filename, _line, _name), (_prim, n_calls, *_)
        in pstats.Stats(profile).stats.items()
        if filename.startswith(SRC)
    )
    assert calls <= CEILING, (
        f"{calls:,} Python calls under src/repro for one chaos-quiet smoke rep "
        f"(ceiling {CEILING:,}): a per-batch pass came back"
    )
