"""The benchmark's own test - run with ``pytest benchmarks/perf``.

Smoke sizes throughout (2 reps, one tenth of the requests).  It checks the
benchmark's shape against ``BENCHMARK.json``, that every timing wrapper
actually binds (a silent zero count would mean a layer is not measured),
that self times never exceed the traced wall, that the tracer leaves every
class as it found it, and the two behaviours the contract asks for: a JSON
last line, and a non-zero exit where the program's source is missing.
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import metrics as M  # noqa: E402
import run  # noqa: E402  (also puts src/ on sys.path)
import tracer as T  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: layers whose every wrapped callable must be called on the workload
WORKS_ON = {
    "traffic-read": ["rack.memory", "rack.machine.init", "core.kernel", "core.events",
                     "workloads.arrivals", "workloads.traffic"],
    "traffic-write": ["rack.memory", "core.events", "workloads.traffic"],
    "redis-closed": ["rack.memory", "apps.redis", "core.ipc", "flacdk.structures", "net"],
    "chaos-quiet": ["core.events", "chaos", "flacdk.reliability"],
    "incidents-observed": ["chaos", "telemetry.spans", "telemetry.health",
                           "telemetry.recorder", "telemetry.atlas",
                           "telemetry.incidents", "telemetry.incidents.score"],
}
#: callables that must be called even though their layer has unused members
CALLED_ON = {
    "traffic-read": ["RackMachine.load_many", "RackMachine.store_many", "RackMachine.store",
                     "Interconnect.charge", "VniTable.saturated"],
    "traffic-write": ["RackMachine.store_many", "RackMachine.store", "Interconnect.charge"],
    "redis-closed": ["RackMachine.load", "RackMachine.store", "RackMachine.invalidate"],
    "chaos-quiet": ["ResilientTrafficEngine.__init__", "ResilientTrafficEngine._run_admitted",
                    "ChaosUnderLoad.run", "ChaosUnderLoad.sync_recorder",
                    "RackMachine.load_many"],
    "incidents-observed": ["ResilientTrafficEngine._run_admitted", "ChaosUnderLoad.run",
                           "ResilientTrafficEngine.feed_health_alerts",
                           "TelemetryState.count", "MetricsRegistry.inc", "MetricsRegistry.add",
                           "MetricsRegistry.set_gauge", "MetricsRegistry.observe_batch"],
}


def _raw_attributes():
    """What every wrapped attribute currently resolves to."""
    raw = {}
    for _layer, module, qualname, *_ in T.TABLE:
        owner, attr = T._resolve(module, qualname)
        raw[qualname] = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return raw


@pytest.fixture(scope="module")
def traced():
    """One traced smoke run per workload, plus the attribute snapshots."""
    before = _raw_attributes()
    results = {
        name: run.run_traced(w, seed=0, scale=run.SMOKE_SCALE, reps=run.SMOKE_REPS, seconds=0.0)
        for name, w in WORKLOADS.items()
    }
    return results, before, _raw_attributes()


def test_names_and_limits_match_benchmark_json():
    workloads = [w["name"] for w in SPEC["workloads"]]
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert workloads == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]] \
        == list(M.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(M.PER_LAYER)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]
    names = workloads + end_to_end + per_layer
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert 2 <= len(workloads) <= 8 and len(end_to_end) <= 16 and len(per_layer) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert "setup_s" in end_to_end
    assert max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25
    assert SPEC["paths"] == ["benchmarks/perf"]


def test_traced_runs_are_correct_and_complete(traced):
    results, _, _ = traced
    for name, result in results.items():
        assert result["correct"], (name, result["problems"])
        assert set(result["metrics"]) == {n for n, _, _ in M.PER_LAYER}


def test_every_wrapper_binds_where_its_layer_works(traced):
    results, _, _ = traced
    layer_of = {qualname: layer for layer, _module, qualname, *_ in T.TABLE}
    for name, result in results.items():
        calls = result["calls"]
        expected = [q for q, layer in layer_of.items() if layer in WORKS_ON[name]]
        silent = [q for q in expected + CALLED_ON[name] if calls[q] == 0]
        assert not silent, f"{name}: wrapped but never called: {silent}"


def test_self_time_fits_in_the_traced_wall(traced):
    results, _, _ = traced
    for name, result in results.items():
        m = result["metrics"]
        assert 0.0 <= m["bench.trace.unattributed_share"] <= 0.2, name
        shares = sum(v for k, v in m.items() if k.endswith(".share")
                     and not k.startswith("bench."))
        assert shares <= 1.0, name
        assert m["bench.replay_identical"] == 1.0, name
    assert results["traffic-read"]["metrics"]["rack.machine.bulk.fallback_ratio"] > 0


def test_tracer_restores_every_attribute(traced):
    _, before, after = traced
    assert before == after
    assert not any(hasattr(fn, "__wrapped__") for fn in after.values())


def test_contract_form_prints_json_and_fails_without_source(tmp_path):
    cmd = SPEC["command"] + ["--workload", "traffic-read", "--seed", "1",
                             "--trace", "0", "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] != 0 for v in last["metrics"].values())

    # a directory holding only BENCHMARK.json and the benchmark's own files
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    bare = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert bare.returncode != 0
    assert not bare.stdout.strip()
