"""Tests for the experiment tooling under ``benchmarks/``: the E-id census,
its docs-name check, and the drift guard the experiments emit their tables
through."""

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
    _, roots, _ = census.scan(census.parse(census.ROOT / "src" / "repro"), BENCHMARKS)
    assert [r for r in roots if r.startswith("E")] == [f"E{i}" for i in range(1, 15)]


def test_census_names_a_planted_orphan(tmp_path):
    census = _benchmarks_module("census")
    src = tmp_path / "repro"
    shutil.copytree(census.ROOT / "src" / "repro", src)
    before = set(census.census(src=src, bench=BENCHMARKS)[1])
    plants = [  # (code appended to core/sched.py, the orphans it adds)
        ("def planted_orphan():\n    return RackScheduler\n",
         {"repro.core.sched.planted_orphan"}),
        # Class.attr reaches that class's attr, not a same-named method elsewhere
        ("class Planted:\n    def twin(self):\n        pass\n\n\n"
         "class PlantedTwin:\n    def twin(self):\n        pass\n\n\n"
         "_PLANTED = (Planted.twin, PlantedTwin)\n",
         {"repro.core.sched.PlantedTwin.twin"}),
    ]
    for code, planted in plants:
        with open(src / "core" / "sched.py", "a") as fh:
            fh.write("\n\n" + code)
        text, orphans = census.census(src=src, bench=BENCHMARKS)
        assert set(orphans) - before == planted
        assert {f"  {name}" for name in planted} <= set(text.splitlines())
        before = set(orphans)


def test_census_refuses_a_kept_label_that_is_not_a_roadmap_item():
    census = _benchmarks_module("census")
    assert census.stale_labels(census._KEPT) == []
    assert census.stale_labels({"item 2": "a", "pending deletion": "b", "item": "c"}) == [
        "kept under a label that is not a ROADMAP item: 'pending deletion'",
        "kept under a label that is not a ROADMAP item: 'item'",
    ]


def test_docs_check_names_a_planted_stale_member(tmp_path):
    census = _benchmarks_module("census")
    doc = tmp_path / "DESIGN.md"
    doc.write_text(
        "`FlacOS.boot(machine)` and `RackMachine.load` exist; `kernel.devices` names no class.\n"
        "`Interconnect.link` cables, `FabricGraph.adj` is a slot, `FaultKind.NODE_CRASH` a member,\n"
        "`FlacOS.devices` is planted.\n"
    )
    assert census.stale_doc_names(docs=[doc]) == ["DESIGN.md:3: FlacOS.devices"]


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
