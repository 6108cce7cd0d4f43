"""Tests for the experiment tooling under ``benchmarks/``: the execution
census's check (on synthetic traces, never running a root), its docs-name
check, and the drift guard the experiments emit their tables through."""

import ast
import importlib.util
import pathlib
import re
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
    labels = dict.fromkeys(label for label, _ in census.roots())
    assert [r for r in labels if r.startswith("E")] == [f"E{i}" for i in range(1, 15)]


def _synthetic(census, missed=("b",)):
    """A one-module tree (``a`` calls ``b``, ``c`` is a docstring-only stub) and the
    ``executed.txt`` of a trace that never ran ``missed``."""
    tree = ast.parse('def a():\n    return b()\n\n\ndef b():\n    return 2\n\n\ndef c():\n    """stub"""\n')
    return {"m": tree}, census.read_executed(f"m 2 E1\n" + "".join(f"  {n}\n" for n in missed) + "never executed")


def test_census_names_a_planted_orphan(tmp_path):
    """A def planted in a copy of ``src/`` fails the count check: ``executed.txt`` is stale."""
    census = _benchmarks_module("census")
    shutil.copytree(census.SRC / "core", tmp_path / "repro" / "core", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "repro" / "core" / "backoff.py", "a") as fh:
        fh.write("\n\ndef planted():\n    return 1\n")
    trees = census.parse(tmp_path / "repro")
    table = census.read_executed(census.EXECUTED.read_text())
    bad = [p for p in census.problems(trees, table) if "re-run" in p]
    assert bad == [f"repro.core.backoff: {table['repro.core.backoff'][0] + 1} defs, executed.txt has "
                   f"{table['repro.core.backoff'][0]} - re-run `census.py --run`"]


def test_census_refuses_an_unlabelled_never_executed_def():
    census = _benchmarks_module("census")
    trees, table = _synthetic(census)
    assert census.problems(trees, table, {}) == ["never executed and not labelled: m.b"]
    assert census.problems(trees, table, {"b": "branch a"}) == []
    assert census.problems(trees, _synthetic(census, ())[1], {}) == []


def test_census_refuses_a_label_on_an_executed_or_gone_def():
    census = _benchmarks_module("census")
    trees, table = _synthetic(census)
    assert census.problems(trees, table, {"b": "guard", "a": "repr", "z": "guard"}) == [
        "labelled 'repr' but executed: a", "labelled 'guard' but gone: z"]
    assert census.problems(trees, _synthetic(census, ("a", "b"))[1], {"a": "guard", "b": "branch a"}) == [
        "b labelled 'branch a', but a did not execute"]


def test_census_refuses_a_kept_label_that_is_not_a_roadmap_item():
    census = _benchmarks_module("census")
    assert all(re.fullmatch(census.KINDS, label) for label in census.LABELS.values())
    trees, table = _synthetic(census)
    assert census.problems(trees, table, {"b": "pending deletion"}) == ["not a label: 'pending deletion' on b"]
    assert census.problems(trees, table, {"b": "item"}) == ["not a label: 'item' on b"]


def test_census_names_a_planted_unused_import(tmp_path):
    """A top-level import nothing loads fails the rule; a re-export is exempt: an
    ``__init__.py``'s imports, and a name ``__all__`` lists."""
    census = _benchmarks_module("census")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "__init__.py").write_text("import os\n")
    (tmp_path / "tests" / "test_planted.py").write_text(
        "import os\nimport sys\nfrom typing import Dict, List\n__all__ = ['List']\n"
        "def f(x: Dict) -> int:\n    return sys.maxsize  # os\n")
    assert census.unused_imports(tmp_path) == ["tests/test_planted.py:1: os"]


def test_docs_check_names_a_planted_stale_member(tmp_path):
    census = _benchmarks_module("census")
    doc = tmp_path / "DESIGN.md"
    doc.write_text(
        "`FlacOS.boot(machine)` and `RackMachine.load` exist; `kernel.devices` names no class.\n"
        "`Interconnect.link` cables, `FabricGraph.adj` is a slot, `FaultKind.NODE_CRASH` a member,\n"
        "`FlacOS.devices` is planted.\n"
        "`tests/apps/test_bench_runner.py::test_docs_check_names_a_planted_stale_member` and\n"
        "`benchmarks/bench_*.py` exist; `tests/apps/test_planted.py` and `test_planted_id` do not.\n"
    )
    assert census.stale_doc_names(docs=[doc]) == [
        "DESIGN.md:3: FlacOS.devices", "DESIGN.md:5: tests/apps/test_planted.py", "DESIGN.md:5: test_planted_id"]


def test_docs_check_names_a_planted_stale_bare_name(tmp_path):
    """A capitalised name alone in a code span must be a class, def or constant
    of the code, or a builtin; a dotted tail and a fenced block are not read."""
    census = _benchmarks_module("census")
    doc = tmp_path / "DESIGN.md"
    doc.write_text(
        "`RackMachine`, `Record` (a constant), `ValueError` and `np.random.Generator` resolve;\n"
        "`PlantedMap` is planted, and so is `Absent.member`.\n"
        "```\nProse in a fenced block is not a name.\n```\n"
    )
    assert census.stale_doc_names(docs=[doc]) == ["DESIGN.md:2: PlantedMap", "DESIGN.md:2: Absent"]


def test_docs_check_reads_a_code_span_wrapped_over_one_line_break(tmp_path):
    """A span wrapped over one line break is one span, and the prose after
    it is not code; no span crosses a blank line.  A run of backticks
    closes on a run as long, so prose between two ``double`` spans is prose."""
    census = _benchmarks_module("census")
    doc = tmp_path / "DESIGN.md"
    doc.write_text(
        "A list `tenants: [{vni,\n"
        "PlantedWrapped}]` then The prose, ``RackMachine`` and Prose, ``FlacOS``.\n"
        "A `Stray\n"
        "\n"
        "Across` is nothing.\n"
    )
    assert census.stale_doc_names(docs=[doc]) == ["DESIGN.md:2: PlantedWrapped"]


def test_docs_check_resolves_a_package_relative_path(tmp_path):
    """``apps.redis.X`` is a path from ``src/repro``: ``X`` must be defined or
    imported at the top of that module; a lower-case tail is a layer name,
    and a path that does not start at a package of ours is not checked."""
    census = _benchmarks_module("census")
    doc = tmp_path / "DESIGN.md"
    doc.write_text(
        "`apps.redis.MiniRedisServer`, `repro.rack.machine.SlotWindow`, `rack.SimClock` resolve;\n"
        "`rack.machine.bulk.calls` is a layer and `np.random.Generator` is not ours;\n"
        "`apps.redis.MiniRedis` is planted, and so is `rack.nosuch.Thing`.\n"
    )
    assert census.stale_doc_names(docs=[doc]) == [
        "DESIGN.md:3: apps.redis.MiniRedis", "DESIGN.md:3: rack.nosuch.Thing"]


def test_docs_check_names_a_planted_stale_roadmap_citation(tmp_path):
    """A citation of an item that is not under ``## Open items``, or is marked
    done there, is stale, in prose as in a ``src`` docstring, and so is an
    ``item N`` census label.  A sub-item letter must name an open sub-item."""
    census = _benchmarks_module("census")
    roadmap = tmp_path / "ROADMAP.md"
    roadmap.write_text("## Open items\n\n- **3(d). Open.**\n- **7. Open.**\n  - (b) *Open.*\n"
                       "- **8. Closed.** (**done**: here.)\n  - (a) *Closed.*\n\n## Recent\n\n- **9. Done.**\n")
    doc = tmp_path / "DESIGN.md"
    doc.write_text("ROADMAP item 7, ROADMAP 7(b) and ROADMAP 3(d) are open;\nROADMAP 14(c) and ROADMAP\nitem 9 are not,\n"
                   "nor ROADMAP 3(a), ROADMAP 7(c), ROADMAP 8 or ROADMAP 8(a).\n")
    src = tmp_path / "repro"
    src.mkdir()
    (src / "planted.py").write_text('"""Waits for\nROADMAP item 14(c)."""\n')
    assert census.stale_doc_names(docs=[doc], src=src, roadmap=roadmap,
                                  labels={"a": "item 7", "b": "item 9", "c": "item 8", "d": "guard"}) == [
        "DESIGN.md:2: ROADMAP 14(c)", "DESIGN.md:2: ROADMAP item 9", "DESIGN.md:4: ROADMAP 3(a)",
        "DESIGN.md:4: ROADMAP 7(c)", "DESIGN.md:4: ROADMAP 8", "DESIGN.md:4: ROADMAP 8(a)",
        "repro/planted.py:2: ROADMAP item 14(c)", "census.LABELS: item 9", "census.LABELS: item 8"]


def test_docs_check_names_a_planted_module_path(tmp_path):
    census = _benchmarks_module("census")
    doc = tmp_path / "README.md"
    doc.write_text(
        "`python -m repro.telemetry dashboard run.json` runs; `repro.telemetry.atlas` and\n"
        "`repro.rack.machine.NodeContext` resolve, as does the schema tag `repro.telemetry.flightrec/3`.\n"
        "```\npython -m repro.telemetry.atlas top-links run.json\n```\n"
        "`repro.nosuch` is planted.\n"
    )
    assert census.stale_doc_names(docs=[doc]) == [
        "README.md:4: python -m repro.telemetry.atlas", "README.md:6: repro.nosuch"]


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


def test_knobs_resolve_a_callee_imported_under_another_name():
    """``span(ctx)`` is set by a def that calls it as ``_span(..., ctx=ctx)``."""
    census = _benchmarks_module("census")
    trees = {"t": ast.parse("def span(name, ctx=None, node=-1):\n    return name\n"),
             "m": ast.parse("from t import span as _span\n\n\ndef f(ctx):\n    return _span('x', ctx=ctx)\n")}
    assert census.knobs(trees, {("m", "f")}) == {"t": ["span(node)"], "m": []}


def test_knobs_that_src_assigns_after_construction_are_state():
    """``hits`` is bumped on the object after construction (state); ``limit``
    is only read (an option); ``self.cap = …`` in ``__init__`` is construction."""
    census = _benchmarks_module("census")
    trees = {"t": ast.parse("from dataclasses import dataclass\n\n\n@dataclass\nclass Stats:\n"
                            "    hits: int = 0\n    limit: int = 8\n\n\n"
                            "class Box:\n    def __init__(self, cap=4):\n        self.cap = cap\n\n\n"
                            "def bump(stats):\n    stats.hits += 1\n    return stats.limit\n")}
    options, state = census.split_knobs(trees, census.knobs(trees, {("t", "bump")}))
    assert (options, state) == ({"t": ["Stats(limit)", "Box(cap)"]}, {"t": ["Stats(hits)"]})


def test_knobs_credit_a_subclass_call_to_its_base():
    """``Poisson(rate, seed=…)`` calls ``Arrivals.__init__``: it sets ``seed``."""
    census = _benchmarks_module("census")
    trees = {"t": ast.parse("class Arrivals:\n    def __init__(self, rate, seed=0, start_ns=0.0):\n"
                            "        self.rate = rate\n\n\nclass Poisson(Arrivals):\n"
                            "    def next_chunk(self, n):\n        return n\n"),
             "m": ast.parse("from t import Poisson\n\n\ndef f():\n    return Poisson(1.0, seed=3)\n")}
    assert census.knobs(trees, {("m", "f")}) == {"t": ["Arrivals(start_ns)"], "m": []}


def test_knobs_credit_super_init_to_the_base():
    """``Diurnal.__init__`` passes ``seed`` on through ``super().__init__``."""
    census = _benchmarks_module("census")
    trees = {"t": ast.parse("class Arrivals:\n    def __init__(self, rate, seed=0, start_ns=0.0):\n"
                            "        self.rate = rate\n\n\nclass Diurnal(Arrivals):\n"
                            "    def __init__(self, base, seed=0):\n        super().__init__(base, seed=seed)\n"),
             "m": ast.parse("from t import Diurnal\n\n\ndef f():\n    return Diurnal(1.0, seed=3)\n")}
    assert census.knobs(trees, {("m", "f"), ("t", "Diurnal.__init__")}) == {"t": ["Arrivals(start_ns)"], "m": []}
