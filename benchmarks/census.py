"""Caller census of ``src/repro``, by :mod:`ast` and never importing ``repro`` (DESIGN §1).

Roots: the ``E<n>`` tables of ``benchmarks/bench_*.py``, ``benchmarks/perf/*.py``, the ``__main__``
CLIs and ``boot`` (module-level code, ``FlacOS.boot``).  Reach follows, by name, the identifiers a
reached body uses, string literals and ``getattr`` f-string heads included; ``X.attr`` with ``X`` a
class of ``src/`` reaches that class's ``attr`` only.  Tests, examples, re-exports, docstrings and
return annotations reach nothing.  ``pytest benchmarks/census.py`` writes ``results/census.txt``
(per module: §, knobs no root sets, roots, kept names; the knob total), failing on an unreached
public name or a stale kept one.
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


def knobs(src, bench, base) -> dict:
    """module -> ``callee(name)`` of each defaulted parameter or dataclass field no root sets: no call of
    its def's (method's, class's) name in a root or a def the roots reach (``base``) passes it by keyword,
    by position or through ``*args`` / ``**kw`` (a def's own ``**kwargs`` passes on its callers')."""
    scope = [ast.parse(p.read_text()) for p in [*bench.glob("bench_*.py"), *(bench / "perf").glob("*.py")]]
    params = {}  # module -> [(callee, name, position or None)]
    for path in sorted(src.rglob("*.py")):
        mine = params.setdefault(".".join(path.relative_to(src.parent).with_suffix("").parts), [])
        for stmt in ast.parse(path.read_text()).body:  # fns: (called as, def, names reaching it)
            fns = [(stmt.name, stmt, {stmt.name})] if isinstance(stmt, ast.FunctionDef) else []
            if isinstance(stmt, ast.ClassDef):  # the class's name calls its __init__
                fns = [(n, f, {n, f"{stmt.name}.{f.name}"}) for f in stmt.body if isinstance(f, ast.FunctionDef)
                       for n in [stmt.name if f.name == "__init__" else f.name] if n[:2] != "__"]
                if any("dataclass" in ast.unparse(d) for d in stmt.decorator_list):
                    fields = enumerate(f for f in stmt.body if isinstance(f, ast.AnnAssign))
                    mine += [(stmt.name, f.target.id, i) for i, f in fields if f.value is not None]
            elif not fns:
                scope.append(stmt)
            for callee, f, names in fns:
                scope += [f] if names & base else []
                pos = [a for a in f.args.args if a.arg not in ("self", "cls")]
                mine += [(callee, a.arg, i) for i, a in enumerate(pos) if i >= len(pos) - len(f.args.defaults)]
                mine += [(callee, a.arg, None) for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults) if d]
    passed, forwards = {}, []  # callee -> {names, positions, "*", "**"}; (callee, def forwarding to it)
    for node in scope:
        fwd = getattr(getattr(node, "args", None), "kwarg", None)
        for call in (n for n in ast.walk(node) if isinstance(n, ast.Call)):
            callee = getattr(call.func, "id", None) or getattr(call.func, "attr", "")
            got = passed.setdefault(callee, set())
            got |= {"*" if isinstance(a, ast.Starred) else i for i, a in enumerate(call.args)}
            for k in call.keywords:
                if not k.arg and fwd and getattr(k.value, "id", "") == fwd.arg:
                    forwards.append((callee, node.name))
                else:
                    got.add(k.arg or "**")
    for _ in forwards:  # one round per forwarding call reaches the fixed point
        for callee, via in forwards:
            passed[callee] |= {k for k in passed.get(via, ()) if isinstance(k, str) and k != "*"}
    return {mod: [f"{c}({n})" for c, n, i in ps if not {n, i, "**"} & passed.get(c, set())
                  and not (i is not None and "*" in passed.get(c, ()))] for mod, ps in params.items()}


def census(src=ROOT / "src" / "repro", bench=ROOT / "benchmarks"):
    """(a row per module: §, unset knobs, roots using it beyond what boot touches, kept names; orphans)."""
    defs, roots, modules = scan(src, bench)
    seen = {label: reach(seed, defs) for label, seed in roots.items()}
    base = reach(set().union(*roots.values()), defs)
    unset = knobs(src, bench, base)
    kept = {n: n.split(".")[-1] for _, ns in modules.values() for n in ns if {n, n.split(".")[0]} & KEPT.keys()}
    anywhere = reach(base | set(kept.values()), defs)
    rows, orphans = [("module", "§", "knobs", "reached by", "kept")], []
    for mod, (sec, names) in modules.items():
        last = {n.split(".")[-1] for n in names} | set(names)
        by = [label for label in roots if last & (seen[label] - (seen["boot"] if label != "boot" else set()))]
        orphans += [f"{mod}.{n}" for n in names if not {n, n.split(".")[-1]} & anywhere and "._" not in f".{n}"]
        rows.append((mod, sec, str(len(unset[mod])), " ".join(by) or "-",
                     " ".join(f"{n} ({KEPT[n]})" for n in names if n in KEPT)))
    orphans += [f"kept but reached or gone: {k}" for k in KEPT
                if all({n, kept[n]} & base for n in kept if k in (n, n.split(".")[0]))]
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths + [0])).rstrip() for r in rows]
    lines.append(f"\n{len(modules)} modules, {len(KEPT)} kept names; unreached public names: {len(orphans)}")
    lines.append(f"knobs, defaulted parameters and dataclass fields no root sets: {sum(map(len, unset.values()))}")
    return "\n".join(lines + [f"  {o}" for o in orphans]), orphans


def test_census(emit):
    text, orphans = census()
    emit("census", text)
    assert not orphans, f"public names nothing reaches: {orphans}"
