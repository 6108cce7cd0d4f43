"""Caller census of ``src/repro``, by :mod:`ast` and never importing ``repro`` (DESIGN §1).

Roots: the ``E<n>`` tables of ``benchmarks/bench_*.py``, ``benchmarks/perf/*.py``, the ``__main__``
CLIs and ``boot`` (module-level code, ``FlacOS.boot``).  Reach follows, by name, the identifiers a
reached body uses, string literals and ``getattr`` f-string heads included; ``X.attr`` with ``X`` a
class of ``src/`` reaches that class's ``attr`` only.  Tests, examples, re-exports, docstrings and
return annotations reach nothing.  ``pytest benchmarks/census.py`` writes ``results/census.txt``
(per module: §, knobs no root sets, roots, kept names; the knob total), failing on an unreached
public name, a stale kept one, or a kept one whose label is not an open ROADMAP item.  It also
checks that every backticked ``Class.member`` in DESIGN.md and README.md names a member of that
class of ``src/``.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
#: Names no root reaches, kept (a kept class keeps its methods), by the open ROADMAP item ("item N")
#: whose subject they are; any other label fails the census.
_KEPT = {
    "item 2": "RackMachine.flush_all", "item 6": "ReplicatedDict DelegatedDict",
    "item 5": "OperationLog SpscRing LockedHashMap SharedVector GlobalSpinLock BoundedStaleCell VersionChain",
    "item 7": "disable TelemetryState.export_json",
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


def parse(src: pathlib.Path) -> dict:
    """Dotted module name -> parsed source, for every module under ``src``, in path order."""
    return {".".join(path.relative_to(src.parent).with_suffix("").parts): ast.parse(path.read_text())
            for path in sorted(src.rglob("*.py"))}


def scan(trees: dict, bench: pathlib.Path):
    """(name -> [uses of each def so named], root -> names used, module -> (§, [its defs])) of ``parse``'s
    ``trees``."""
    defs, roots, modules = {}, {}, {}
    classes = {s.name for tree in trees.values() for s in tree.body if isinstance(s, ast.ClassDef)}
    for path in sorted(bench.glob("bench_*.py")):
        for exp in set(re.findall(r'emit\(\s*"(E\d+)', path.read_text())):
            roots.setdefault(exp, set()).update(_uses([ast.parse(path.read_text())], classes))
    roots = {e: roots[e] for e in sorted(roots, key=lambda e: int(e[1:]))}
    roots["perf"] = _uses((ast.parse(p.read_text()) for p in sorted((bench / "perf").glob("*.py"))), classes)
    roots["cli"], roots["boot"] = set(), {"FlacOS", "boot", "FlacOS.boot"}
    for mod, tree in trees.items():
        sec = re.search(r"§\s*\d+(\.\d+)*", ast.get_docstring(tree) or "")
        entries = []  # (name, the nodes its definition uses)
        top = "cli" if mod.endswith(".__main__") else "boot"  # whose module-level code this is
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
        modules[mod] = (sec.group(0).replace(" ", "") if sec else "—", [name for name, _ in entries])
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


def knobs(trees, bench, base) -> dict:
    """module -> ``callee(name)`` of each defaulted parameter or dataclass field no root sets: no call of
    its def's (method's, class's) name in a root or a def the roots reach (``base``) passes it by keyword,
    by position or through ``*args`` / ``**kw`` (a def's own ``**kwargs`` passes on its callers')."""
    scope = [ast.parse(p.read_text()) for p in [*bench.glob("bench_*.py"), *(bench / "perf").glob("*.py")]]
    params = {}  # module -> [(callee, name, position or None)]
    for mod, tree in trees.items():
        mine = params.setdefault(mod, [])
        for stmt in tree.body:  # fns: (called as, def, names reaching it)
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


def stale_labels(kept) -> list:
    """One line per ``_KEPT``-shaped label that is not an open ROADMAP item's (``item <n>``)."""
    return [f"kept under a label that is not a ROADMAP item: {label!r}"
            for label in kept if not re.fullmatch(r"item \d+", label)]


def census(src=ROOT / "src" / "repro", bench=ROOT / "benchmarks"):
    """(a row per module: §, unset knobs, roots using it beyond what boot touches, kept names; orphans)."""
    trees = parse(src)
    defs, roots, modules = scan(trees, bench)
    seen = {label: reach(seed, defs) for label, seed in roots.items()}
    base = reach(set().union(*roots.values()), defs)
    unset = knobs(trees, bench, base)
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
    assert not stale_labels(_KEPT), stale_labels(_KEPT)


def class_members(trees) -> dict:
    """class name -> what it or a base class in ``parse``'s ``trees`` defines: defs, nested classes, class-level and
    dataclass fields, ``__slots__`` entries and ``self.<name> =`` assignments."""
    own, bases = {}, {}
    for tree in trees.values():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            names = own.setdefault(cls.name, set())
            bases.setdefault(cls.name, set()).update(getattr(b, "id", getattr(b, "attr", "")) for b in cls.bases)
            for stmt in cls.body:
                targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names.add(stmt.name)
                names.update(t.id for t in targets if isinstance(t, ast.Name))
                if any(getattr(t, "id", "") == "__slots__" for t in targets):
                    names.update(c.value for c in ast.walk(stmt.value) if isinstance(c, ast.Constant))
            for node in ast.walk(cls):
                for target in getattr(node, "targets", [getattr(node, "target", None)]):
                    for t in getattr(target, "elts", [target]):
                        if isinstance(t, ast.Attribute) and getattr(t.value, "id", "") == "self":
                            names.add(t.attr)
    members = {}
    for name in own:
        todo, seen = [name], set()
        while todo:
            cls = todo.pop()
            if cls in own and cls not in seen:
                seen.add(cls)
                todo += bases[cls]
        members[name] = set().union(*(own[c] for c in seen))
    return members


def stale_doc_names(docs=(ROOT / "DESIGN.md", ROOT / "README.md"), src=ROOT / "src" / "repro") -> list:
    """``file:line: Class.member`` for each ``Class.member`` in a code span or fenced block whose
    ``Class`` is a class of ``src`` that defines no ``member``."""
    members, stale = class_members(parse(src)), []
    fence = re.compile(r"^```.*?^```", re.S | re.M)
    for doc in docs:
        text = doc.read_text()
        blanked = fence.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), text)  # offsets kept
        refs = sorted((span.start() + ref.start(), ref.group(0))
                      for span in [*fence.finditer(text), *re.finditer(r"`[^`\n]+`", blanked)]
                      for ref in re.finditer(r"(?<!\w)([A-Z]\w*)\.([A-Za-z_]\w*)", span.group(0))
                      if ref.group(2) not in members.get(ref.group(1), {ref.group(2)}))
        stale += [f"{doc.name}:{text.count(chr(10), 0, at) + 1}: {ref}" for at, ref in refs]
    return stale


def test_docs_name_members_that_exist():
    stale = stale_doc_names()
    assert not stale, f"backticked names a class does not define: {stale}"
