"""The perf benchmark (``benchmarks/perf``) reaches into ``src/`` from
outside: its outside-in tracer patches a hand-kept table of callables
(``tracer.py::TABLE``), and its workloads read report keys and scenario
attributes.  A refactor that moves or renames one breaks the benchmark,
which tier-1 does not run — so check here, loading both files read-only,
that every row still binds the way ``Tracer.install`` binds it and that
every workload runs clean, traced and untraced, at a small scale."""

import functools
import importlib
import importlib.util
import pathlib
import sys

import pytest

PERF = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "perf"


@functools.lru_cache(maxsize=None)
def _perf(name: str):
    spec = importlib.util.spec_from_file_location(f"perf_{name}", PERF / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_table_row_resolves_in_its_owners_own_dict():
    missing = []
    for _layer, module, qualname, *_ in _perf("tracer").TABLE:
        owner = importlib.import_module(module)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        # a method must sit in its class's own namespace (an inherited one
        # cannot be patched and put back); a function in its module's
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(f"{module}:{qualname}")
    assert not missing, f"tracer TABLE rows that no longer bind: {missing}"


@pytest.mark.parametrize("name", ["traffic-read", "traffic-write", "redis-closed", "chaos-quiet",
                                  "incidents-observed"])
def test_every_workload_runs_clean_and_replays_under_the_tracer(name):
    """``setup`` / ``run`` / ``verify`` at scale 100, untraced and then under
    the tracer: no output-check problem, one digest."""
    from repro.telemetry import TELEMETRY

    def switches():
        return {slot: getattr(TELEMETRY, slot) for slot in type(TELEMETRY).__slots__}

    workload = _perf("workloads").WORKLOADS[name]
    before = switches()
    state = workload.setup(0, 100)
    plain = workload.run(state)
    problems = plain.problems + workload.verify(state)
    with _perf("tracer").Tracer():
        traced = workload.run(workload.setup(0, 100))
    assert not problems + traced.problems
    assert traced.digest == plain.digest
    assert switches() == before
