"""Caller census of ``src/repro``, by :mod:`ast` and never importing ``repro`` (DESIGN §1).

Roots: the ``E<n>`` tables of ``benchmarks/bench_*.py``, ``benchmarks/perf/*.py``, the ``__main__``
CLIs and ``boot`` (module-level code, ``FlacOS.boot``).  Reach follows, by name, the identifiers a
reached body uses, string literals and ``getattr`` f-string heads included; ``X.attr`` with ``X`` a
class of ``src/`` reaches that class's ``attr`` only.  Tests, examples, re-exports, docstrings and
return annotations reach nothing.  ``pytest benchmarks/census.py``
writes ``results/census.txt``, failing on an unreached public name or a stale kept one.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
#: Names no root reaches, kept (a kept class keeps its methods).  "item N": an open ROADMAP item's subject.
#: "pending deletion": NOT a ROADMAP subject; only its own tier-1 tests call it (retire a few per change).
_KEPT = {
    "item 2": "RackMachine.flush_all", "item 6": "ReplicatedDict DelegatedDict",
    "item 5": "OperationLog SpscRing LockedHashMap SharedVector GlobalSpinLock BoundedStaleCell VersionChain",
    "item 7": "disable TelemetryState.export_json",
    "pending deletion": """BackoffExhausted DtNode BootRom.discover unflatten
        SharedDevice DeviceRegistry.listing AggregatedVolume CheckpointSchedule FlacFS.rename FlacFS.remount
        MetadataJournal MetadataStore.rename MwaitTimeout mwait wake
        IrqBalancer.raise_irq ProcessMigrator.migrate RpcSystem.unregister RpcSystem.call_with_retry
        SharedPageTable.set_flags RackScheduler.adopt_queues SharedPageTable.bump_generation
        MemorySystem.destroy_address_space FrameAllocator.is_allocated HotColdPacker.hot_line_count
        SharedHeap.check_formatted SharedHeap.free_blocks EpochReclaimer.pin EpochReclaimer.unpin
        HandleTable.destroy ChecksumDetector HeartbeatDetector MirrorSource.register_group
        MemoryScrubber.full_pass EthernetLink RdmaError RdmaQueuePair FaultInjector.inject_bitflip
        PhysicalMemory.flip_bit Interconnect.set_link_capacity Interconnect.link_capacity
        RackMachine.power_cycle RequestStream YcsbWorkload.run_phase_batched""",
}
KEPT = {name: item for item, names in _KEPT.items() for name in names.split()}


def _uses(nodes, classes=frozenset()) -> set:
    out, todo = set(), list(nodes)
    while todo:
        n = todo.pop()
        if not isinstance(n, ast.AST) or isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant):
            continue  # a docstring
        todo += [v for f, value in ast.iter_fields(n) if f != "returns"
                 for v in (value if isinstance(value, list) else [value])]
        if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) in classes:
            out.add(f"{n.value.id}.{n.attr}")
        elif isinstance(n, (ast.Name, ast.Attribute)):
            out.add(getattr(n, "id", None) or n.attr)
        elif isinstance(n, ast.Constant) and all(p.isidentifier() for p in str(n.value).split(".")):
            out.update(str(n.value).split("."))
        elif isinstance(n, ast.Call) and getattr(n.func, "id", "") == "getattr" and len(n.args) > 1:
            head = getattr(n.args[1], "values", [None])[0]  # getattr(self, f"_do_{x}") -> "_do_*"
            if isinstance(head, ast.Constant) and head.value.isidentifier():
                out.add(head.value + "*")
    return out


def scan(src: pathlib.Path, bench: pathlib.Path):
    """(name -> [uses of each def so named], root -> names used, module -> (§, [its defs]))."""
    defs, roots, modules = {}, {}, {}
    trees = {path: ast.parse(path.read_text()) for path in sorted(src.rglob("*.py"))}
    classes = {s.name for tree in trees.values() for s in tree.body if isinstance(s, ast.ClassDef)}
    for path in sorted(bench.glob("bench_*.py")):
        for exp in set(re.findall(r'emit\(\s*"(E\d+)', path.read_text())):
            roots.setdefault(exp, set()).update(_uses([ast.parse(path.read_text())], classes))
    roots = {e: roots[e] for e in sorted(roots, key=lambda e: int(e[1:]))}
    roots["perf"] = _uses((ast.parse(p.read_text()) for p in sorted((bench / "perf").glob("*.py"))), classes)
    roots["cli"], roots["boot"] = set(), {"FlacOS", "boot", "FlacOS.boot"}
    for path, tree in trees.items():
        sec = re.search(r"§\s*\d+(\.\d+)*", ast.get_docstring(tree) or "")
        entries = []  # (name, the nodes its definition uses)
        top = "cli" if path.name == "__main__.py" else "boot"  # whose module-level code this is
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                entries.append((stmt.name, [stmt]))
            elif isinstance(stmt, ast.ClassDef):  # a class's own uses: all but its plain methods
                methods = [s for s in stmt.body if isinstance(s, ast.FunctionDef) and not s.name.endswith("__")]
                own = [s for s in stmt.bases + stmt.keywords + stmt.decorator_list + stmt.body if s not in methods]
                entries += [(stmt.name, own)] + [(f"{stmt.name}.{s.name}", [s]) for s in methods]
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):  # an __all__ list uses nothing
                roots[top] |= set() if "__all__" in _uses(getattr(stmt, "targets", [])) else _uses([stmt], classes)
        for name, nodes in entries:
            uses = _uses(nodes, classes)
            for key in {name, name.split(".")[-1]}:  # a method is reached by name or as Class.name
                defs.setdefault(key, []).append(uses)
        modules[".".join(path.relative_to(src.parent).with_suffix("").parts)] = (
            sec.group(0).replace(" ", "") if sec else "—", [name for name, _ in entries])
    return defs, roots, modules


def reach(seed, defs) -> set:
    seen, todo = set(), list(seed)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += [n for n in defs if n.startswith(name[:-1])] if name.endswith("*") else []
            todo += [u for uses in defs.get(name, ()) for u in uses]
    return seen


def census(src=ROOT / "src" / "repro", bench=ROOT / "benchmarks"):
    """(a row per module: §, roots using it beyond what boot touches, kept names; orphans)."""
    defs, roots, modules = scan(src, bench)
    seen = {label: reach(seed, defs) for label, seed in roots.items()}
    base = reach(set().union(*roots.values()), defs)
    kept = {n: n.split(".")[-1] for _, ns in modules.values() for n in ns if {n, n.split(".")[0]} & KEPT.keys()}
    anywhere = reach(base | set(kept.values()), defs)
    rows, orphans = [("module", "§", "reached by", "kept")], []
    for mod, (sec, names) in modules.items():
        last = {n.split(".")[-1] for n in names} | set(names)
        by = [label for label in roots if last & (seen[label] - (seen["boot"] if label != "boot" else set()))]
        orphans += [f"{mod}.{n}" for n in names if not {n, n.split(".")[-1]} & anywhere and "._" not in f".{n}"]
        rows.append((mod, sec, " ".join(by) or "-", " ".join(f"{n} ({KEPT[n]})" for n in names if n in KEPT)))
    orphans += [f"kept but reached or gone: {k}" for k in KEPT
                if all({n, kept[n]} & base for n in kept if k in (n, n.split(".")[0]))]
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths + [0])).rstrip() for r in rows]
    lines.append(f"\n{len(modules)} modules, {len(KEPT)} kept names; unreached public names: {len(orphans)}")
    return "\n".join(lines + [f"  {o}" for o in orphans]), orphans


def test_census(emit):
    text, orphans = census()
    emit("census", text)
    assert not orphans, f"public names nothing reaches: {orphans}"
