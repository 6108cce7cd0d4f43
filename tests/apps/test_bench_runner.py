"""Tests for the experiment tooling under ``benchmarks/``: the E-id census
and the drift guard the experiments emit their tables through."""

import importlib.util
import pathlib
import shutil

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


def _benchmarks_module(name: str):
    spec = importlib.util.spec_from_file_location(f"benchmarks_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_list_enumerates_experiments():
    """Experiment ids come from the tables ``benchmarks/bench_*.py`` emit."""
    census = _benchmarks_module("census")
    _, roots, _ = census.scan(census.ROOT / "src" / "repro", BENCHMARKS)
    assert [r for r in roots if r.startswith("E")] == [f"E{i}" for i in range(1, 15)]


def test_census_names_a_planted_orphan(tmp_path):
    census = _benchmarks_module("census")
    src = tmp_path / "repro"
    shutil.copytree(census.ROOT / "src" / "repro", src)
    before = set(census.census(src=src, bench=BENCHMARKS)[1])
    with open(src / "core" / "sched.py", "a") as fh:
        fh.write("\n\ndef planted_orphan():\n    return RackScheduler\n")
    text, orphans = census.census(src=src, bench=BENCHMARKS)
    assert set(orphans) - before == {"repro.core.sched.planted_orphan"}
    assert "  repro.core.sched.planted_orphan" in text.splitlines()


def test_emit_passes_on_identical_text_and_regenerates_then_fails_on_drift(tmp_path):
    emit_into = _benchmarks_module("conftest").emit_into
    table = tmp_path / "E0_demo.txt"

    with pytest.raises(pytest.fail.Exception, match="E0_demo.txt"):  # missing counts as drift
        emit_into(tmp_path, "E0_demo", "a  b\n1  2")
    assert table.read_text() == "a  b\n1  2\n"
    emit_into(tmp_path, "E0_demo", "a  b\n1  2")  # the next run passes

    table.write_text("a  b\n1  3\n")  # one digit edited by hand
    with pytest.raises(pytest.fail.Exception, match="E0_demo.txt"):
        emit_into(tmp_path, "E0_demo", "a  b\n1  2")
    assert table.read_text() == "a  b\n1  2\n"
