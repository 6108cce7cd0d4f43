"""Execution census of ``src/repro``: which defs the CI roots run (DESIGN §1).

Record: ``python benchmarks/census.py --run`` runs every root of :func:`roots` (the ``E<n>`` tables of
``benchmarks/bench_*.py``, the perf smoke, the telemetry CLI's file commands, ``examples/*.py`` and a bare boot),
each in fresh interpreters under a ``sys.setprofile`` hook: a temporary ``sitecustomize.py`` on
``PYTHONPATH``, so the interpreters ``perf/run.py`` starts per workload are traced too.  It writes
``results/executed.txt`` (per module: its def count, the roots that executed a def there beyond what boot
executes, each def no root executed) and fails on a never-executed def without a label.  A def whose body
is only a docstring or ``...`` is not counted.

Check: ``pytest benchmarks/census.py`` runs no root.  It joins ``executed.txt`` with ``src/``'s ast and
writes ``results/census.txt`` (per module: §, options, state, roots, labelled never-executed defs), failing
on a module whose def count or names differ from ``executed.txt``, a never-executed def without a label, a
label outside :data:`KINDS`, a label on a def that executed or does not exist, a ``branch`` label whose
caller did not execute, and more options than :data:`OPTIONS_BOUND`.  A knob is a defaulted parameter or
dataclass field (not ``init=False``) that no root source and no executed def sets; it is state when ``src``
assigns its name as an attribute after construction, an option otherwise.  The second test checks that every backticked
``Class.member`` in DESIGN.md and README.md names a member of that class of ``src/``, every ``tests/…py`` / ``benchmarks/…py`` path exists, every
``test_*`` / ``Test*`` name is defined under ``tests/`` or ``benchmarks/``, every ``python -m repro.…``
is runnable, every other dotted ``repro.…`` names a module or package of ``src/`` and a capitalised name
after a module path (``apps.redis.X``) a top-level name of that module, and that every ``ROADMAP item N``
citation in the two docs or ``src/``, and every ``item N`` label, names an open ROADMAP item.
"""

import ast
import builtins
import gc
import os
import pathlib
import re
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
EXECUTED = ROOT / "benchmarks" / "results" / "executed.txt"
#: The labels a never-executed def may carry: the open ROADMAP item whose subject it is, ``branch
#: <Class.def>`` for code an executed def calls on an input no root generates, ``guard`` for typed
#: errors, input refusals and repair sources, and ``repr``.
KINDS = r"item \d+|branch [\w.]+|guard|repr"
_LABELS = {
    # the tracer's TABLE binds these (item 1's debts)
    "item 1": "RackMachine.copy RackMachine.fill RackMachine.flush_invalidate RackMachine.atomic_load_many "
              "RackMachine.atomic_fetch_add_many RackMachine.atomic_cas_many VniTable.over_share",
    "item 2": "RackMachine.flush_all NodeCache.flush_all",
    "item 3": "SimClock.reset",  # the reference rack's rules rewind clocks
    "item 5": "OperationLog SpscRing GlobalSpinLock BoundedStaleCell",
    "item 6": "NodeReplication.compact",
    "item 7": "reset",  # the enable surface: telemetry.reset
    "guard": "refuse refuse_input validate_chrome_trace _rows _target SimClock.advance "
             "ChaosEvent.trigger_str SegmentationFault _FailedOp RepairSource CheckpointPageSource "
             "FsBlockSource ArrivalProcess.next_chunk",
    "repr": "Event.__repr__ EventCore.__repr__ Arena.__repr__ Node.__repr__ NodeContext.__repr__ SimClock.__repr__",
    "branch CampaignRunner._apply": "CampaignRunner._do_ue",
    "branch CampaignRunner.run": "HealthEngine.invariant_failed",
    "branch SharedPageCache.get_pages": "SharedPageCache.get_page",  # a cold miss
    "branch AddressSpace.handle_fault": "AddressSpace._fault_local FlacOS._file_reader",  # a local page fault
    "branch MemoryScrubber._feed_predictor_and_evacuate": "FailurePredictor.reset_page",
    "branch MemorySystem.migrate_global_page": "ReverseMap.refcount",
    "branch span": "TraceBuffer.current",
    "branch render_dashboard": "TraceBuffer.flame_summary TraceBuffer._paths",  # a traced run given to --flame
    "branch RackMachine.load_many": "_split",
    "branch render_links": "_rate",  # a link row: no CLI root's run charges the fabric
    "branch main": "_cmd_list",
}
LABELS = {name: label for label, names in _LABELS.items() for name in names.split()}
#: The most options (knobs that are not state) ``src`` may hold: a new one needs a caller, or a constant.
OPTIONS_BOUND = 105

_HOOK = '''\
import atexit, os, sys, threading
_seen = set()
def _hook(frame, event, arg, _add=_seen.add):
    if event == "call":
        _add(frame.f_code)
sys.setprofile(_hook)
threading.setprofile(_hook)
@atexit.register
def _write():
    sys.setprofile(None)
    src = os.environ["CENSUS_SRC"]
    with open(os.path.join(os.environ["CENSUS_OUT"], "%d.txt" % os.getpid()), "w") as fh:
        fh.writelines("%s:%d\\n" % (c.co_filename, c.co_firstlineno) for c in _seen if c.co_filename.startswith(src))
'''


def roots(out: str = "OUT"):
    """(label, argv) of every root: what CI runs, less the tests; ``out`` is a scratch directory."""
    py, tel = sys.executable, "repro.telemetry"
    benches = []
    for path in sorted(ROOT.glob("benchmarks/bench_*.py")):
        exp = re.search(r'emit\(\s*"(E\d+)', path.read_text())
        benches.append((exp.group(1), [py, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", str(path)]))
    benches.sort(key=lambda root: int(root[0][1:]))
    dump, run = f"{out}/d.json", f"{out}/run.json"
    return benches + [
        ("perf", [py, "benchmarks/perf/run.py", "--smoke"]),
        ("perf", [py, "benchmarks/perf/run.py", "--smoke", "--trace"]),
        ("cli", [py, "-m", tel, "run", "ue-storm", "--dump", dump, "--trace-out", f"{out}/t.json"]),
        ("cli", [py, "-m", tel, "replay", dump]),
        ("cli", [py, "-m", tel, "score", dump]),
        ("cli", [py, "-m", tel, "postmortem", dump]),
        ("cli", [py, "examples/redis_rack.py", "--telemetry", run]),
        ("cli", [py, "-m", tel, "dashboard", run, "--flame"]),
        *(("cli", [py, "-m", tel, view, run]) for view in ("top-links", "top-pages")),
        *(("examples", [py, str(path)]) for path in sorted(ROOT.glob("examples/*.py"))),
        ("boot", [py, "-c", "import pkgutil, importlib, repro\n"
                  "for m in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
                  "    m.name.endswith('__main__') or importlib.import_module(m.name)\n"
                  "repro.FlacOS.boot(repro.RackMachine(repro.RackConfig()))"]),
    ]


def record(src: pathlib.Path = SRC) -> dict:
    """Run every root under the hook: label -> {(absolute path, first line)} of the code it executed."""
    ran = {}
    with tempfile.TemporaryDirectory() as tmp:
        hook, out = pathlib.Path(tmp, "hook"), pathlib.Path(tmp, "out")
        hook.mkdir()
        out.mkdir()
        (hook / "sitecustomize.py").write_text(_HOOK)
        for label, argv in roots(str(out)):
            trace = pathlib.Path(tmp, "trace")
            trace.mkdir()
            env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(hook), str(src.parent)]),
                       PYTHONHASHSEED="0", CENSUS_SRC=str(src), CENSUS_OUT=str(trace))
            print(f"== {label}: {' '.join(argv[1:]).splitlines()[0][:100]}", flush=True)
            done = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
            if done.returncode:
                sys.exit(f"root {label} failed: {argv}")
            for path in trace.iterdir():
                for line in path.read_text().split():
                    file, first = line.rsplit(":", 1)
                    ran.setdefault(label, set()).add((file, int(first)))
                path.unlink()
            trace.rmdir()
    return ran


def parse(src: pathlib.Path) -> dict:
    """Dotted module name -> parsed source, for every module under ``src``, in path order."""
    gc.disable()  # an ast is many small objects and no cycles: collecting while parsing is all cost
    try:
        return {".".join(path.relative_to(src.parent).with_suffix("").parts): ast.parse(path.read_text())
                for path in sorted(src.rglob("*.py"))}
    finally:
        gc.enable()


def _stub(f) -> bool:
    return all(isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant)
               and (s.value.value is Ellipsis or isinstance(s.value.value, str)) for s in f.body)


def defs(tree) -> dict:
    """First line (a decorator's, if any) -> qualified name of each counted def: ``Class.method``,
    ``outer.inner`` for a nested one, ``Class.prop.setter`` for a property's setter."""
    out = {}

    def visit(body, prefix):  # defs sit in statement lists only
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                visit(stmt.body, f"{prefix}{stmt.name}.")
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + stmt.name
                name += "".join(f".{d.attr}" for d in stmt.decorator_list
                                if isinstance(d, ast.Attribute) and getattr(d.value, "id", "") == stmt.name)
                if not _stub(stmt):
                    out[min([stmt.lineno] + [d.lineno for d in stmt.decorator_list])] = name
                visit(stmt.body, f"{name}.")
            else:  # if / for / while / with / try and its handlers
                for field in ("body", "orelse", "finalbody", "handlers"):
                    visit(getattr(stmt, field, ()), prefix)

    visit(tree.body, "")
    return out


def section(tree) -> str:
    sec = re.search(r"§\s*\d+(\.\d+)*", ast.get_docstring(tree) or "")
    return sec.group(0).replace(" ", "") if sec else "—"


def executed_text(trees: dict, ran: dict, src: pathlib.Path = SRC) -> str:
    """``executed.txt`` from ``record``'s traces: per module its def count, the roots that executed a def
    there beyond boot, and an indented line per def no root executed."""
    lines, total, never = [], 0, 0
    for mod, tree in trees.items():
        path = str(src.parent.joinpath(*mod.split(".")).with_suffix(".py"))
        mine = defs(tree)
        hit = {label: {line for file, line in got if file == path} & mine.keys() for label, got in ran.items()}
        boot = hit.get("boot", set())
        by = [label for label in dict.fromkeys(ran) if hit[label] - (boot if label != "boot" else set())]
        missed = sorted(mine[line] for line in mine.keys() - set().union(*hit.values()))
        lines += [" ".join([mod, str(len(mine))] + by)] + [f"  {name}" for name in missed]
        total, never = total + len(mine), never + len(missed)
    return "\n".join(lines + [f"never executed: {never} of {total} defs"])


def read_executed(text: str) -> dict:
    """module -> (def count, [roots], [never-executed defs]) of an ``executed.txt``."""
    out = {}
    for line in text.splitlines()[:-1]:
        if line.startswith("  "):
            out[mod][2].append(line.strip())
        else:
            mod, count, *by = line.split()
            out[mod] = (int(count), by, [])
    return out


def problems(trees: dict, executed: dict, labels: dict = None) -> list:
    """One line per way ``src``'s ast, ``executed.txt`` and the labels disagree."""
    labels = LABELS if labels is None else labels
    out, never, ran = [], {}, set()
    for mod, tree in trees.items():
        names = set(defs(tree).values())
        count, _, missed = executed.get(mod, (None, (), ()))
        if count != len(names) or not names >= set(missed):
            out.append(f"{mod}: {len(names)} defs, executed.txt has {count} - re-run `census.py --run`")
        never.update((name, mod) for name in missed)
        ran |= names - set(missed)
    out += [f"not a label: {label!r} on {name}" for name, label in labels.items()
            if not re.fullmatch(KINDS, label)]
    out += [f"never executed and not labelled: {mod}.{name}" for name, mod in sorted(never.items())
            if not any(name == key or name.startswith(key + ".") for key in labels)]
    for name, label in labels.items():
        covered = [n for n in never if n == name or n.startswith(name + ".")]
        if name in ran or not covered:
            out.append(f"labelled {label!r} but {'executed' if name in ran else 'gone'}: {name}")
        caller = label[len("branch "):] if label.startswith("branch ") else None
        if caller and caller not in ran:
            out.append(f"{name} labelled {label!r}, but {caller} did not execute")
    return out


_LEAVES = (ast.Name, ast.Constant, ast.expr_context, ast.operator, ast.cmpop, ast.unaryop, ast.boolop, ast.arg)


def _calls(node) -> list:
    """Every ``ast.Call`` under ``node``: ``ast.walk`` less the leaves no call is under."""
    out, todo = [], [node]
    while todo:
        n = todo.pop()
        if n.__class__ is ast.Call:
            out.append(n)
        for value in map(n.__getattribute__, n._fields):
            if value.__class__ is list:
                todo += [v for v in value if isinstance(v, ast.AST) and not isinstance(v, _LEAVES)]
            elif isinstance(value, ast.AST) and not isinstance(value, _LEAVES):
                todo.append(value)
    return out


def _aliases(tree) -> dict:
    """``as`` name -> imported name, for each module-level ``from … import … as …`` of ``tree``."""
    return {a.asname: a.name for stmt in tree.body if isinstance(stmt, ast.ImportFrom) for a in stmt.names if a.asname}


def knobs(trees, ran, scope=()) -> dict:
    """module -> ``callee(name)`` of each defaulted parameter or dataclass field nothing in scope sets: no
    call of its def's (method's, class's) name in the roots' own files (``scope``), module-level code or an
    executed def (``ran``: (module, qualified name)) passes it by keyword, by position or through ``*args`` /
    ``**kw`` (a def's own ``**kwargs`` passes on its callers').  A call through a name imported ``as`` another
    calls the imported name; a call of a subclass that defines no ``__init__``, and a ``super().__init__(…)``,
    call the base class."""
    gc.disable()
    try:
        scope = [(tree, _aliases(tree), None, ()) for tree in (ast.parse(p.read_text()) for p in scope)]
    finally:
        gc.enable()
    params, inherits = {}, {}  # module -> [(callee, name, position or None)]; class without __init__ -> bases
    for mod, tree in trees.items():
        mine, aliases = params.setdefault(mod, []), _aliases(tree)
        for stmt in tree.body:  # fns: (called as, def, qualified name)
            fns, bases = [(stmt.name, stmt, stmt.name)] if isinstance(stmt, ast.FunctionDef) else [], ()
            if isinstance(stmt, ast.ClassDef):  # the class's name calls its __init__
                bases = tuple(getattr(b, "id", getattr(b, "attr", "")) for b in stmt.bases)
                fns = [(n, f, f"{stmt.name}.{f.name}") for f in stmt.body if isinstance(f, ast.FunctionDef)
                       for n in [stmt.name if f.name == "__init__" else f.name] if n[:2] != "__"]
                if stmt.name not in (callee for callee, _, _ in fns):
                    inherits[stmt.name] = bases
                if any("dataclass" in ast.unparse(d) for d in stmt.decorator_list):
                    # a field(init=False) is no parameter of the class: nothing can pass it
                    fields = enumerate(f for f in stmt.body if isinstance(f, ast.AnnAssign)
                                       and "init=False" not in ast.unparse(f))
                    mine += [(stmt.name, f.target.id, i) for i, f in fields if f.value is not None]
            elif not fns:
                scope.append((stmt, aliases, None, ()))
            for callee, f, name in fns:
                scope += [(f, aliases, callee, bases)] if (mod, name) in ran else []
                pos = [a for a in f.args.args if a.arg not in ("self", "cls")]
                mine += [(callee, a.arg, i) for i, a in enumerate(pos) if i >= len(pos) - len(f.args.defaults)]
                mine += [(callee, a.arg, None) for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults) if d]
    # callee -> {names, positions, "*", "**"}; (callee, caller whose passes reach it, positions too)
    passed, edges = {}, [(base, cls, True) for cls, bases in inherits.items() for base in bases]
    for node, aliases, called_as, bases in scope:
        fwd = getattr(getattr(node, "args", None), "kwarg", None)
        for call in _calls(node):
            callee = getattr(call.func, "id", None)
            callee = aliases.get(callee, callee) if callee else getattr(call.func, "attr", "")
            receiver = getattr(call.func, "value", None)  # ``super()`` in ``super().__init__(…)``
            sup = callee == "__init__" and getattr(getattr(receiver, "func", None), "id", "") == "super"
            got = {"*" if isinstance(a, ast.Starred) else i for i, a in enumerate(call.args)}
            for k in call.keywords:
                if not k.arg and fwd and getattr(k.value, "id", "") == fwd.arg:
                    edges += [(c, called_as, False) for c in (bases if sup else [callee])]
                else:
                    got.add(k.arg or "**")
            for c in bases if sup else [callee]:
                passed.setdefault(c, set()).update(got)
    for _ in edges:  # one round per edge reaches the fixed point
        for callee, via, whole in edges:
            passed.setdefault(callee, set()).update(
                k for k in passed.get(via, ()) if whole or (isinstance(k, str) and k != "*"))
    return {mod: [f"{c}({n})" for c, n, i in ps if not {n, i, "**"} & passed.get(c, set())
                  and not (i is not None and "*" in passed.get(c, ()))] for mod, ps in params.items()}


def split_knobs(trees, unset) -> tuple:
    """(options, state) of ``knobs``' ``unset``: a knob is state when ``src`` assigns its name as an attribute
    after construction (``stats.hits += 1``, ``st.pos = end``; not ``self.name = …`` in an ``__init__`` or
    ``__post_init__``), an option otherwise."""
    assigned = set()

    def visit(node, init):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                for target in getattr(child, "targets", [getattr(child, "target", None)]):
                    assigned.update(t.attr for t in getattr(target, "elts", [target]) if isinstance(t, ast.Attribute)
                                    and not (init and getattr(t.value, "id", "") == "self"))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, getattr(child, "name", "") in ("__init__", "__post_init__") if is_def else init)

    for tree in trees.values():
        visit(tree, False)
    state = {mod: [k for k in ks if k[k.index("(") + 1:-1] in assigned] for mod, ks in unset.items()}
    return {mod: [k for k in ks if k not in state[mod]] for mod, ks in unset.items()}, state


def census(src=SRC, executed=EXECUTED):
    """(a row per module: §, options, state, roots beyond boot, labelled never-executed defs; the problems)."""
    trees, table = parse(src), read_executed(executed.read_text())
    ran = {(mod, name) for mod, tree in trees.items() for name in defs(tree).values()
           if name not in table.get(mod, (0, (), ()))[2]}
    scope = [*ROOT.glob("benchmarks/bench_*.py"), *ROOT.glob("benchmarks/perf/*.py"), *ROOT.glob("examples/*.py")]
    options, state = split_knobs(trees, knobs(trees, ran, sorted(scope)))
    rows, counts = [("module", "§", "options", "state", "executed by", "never executed (label)")], {}
    for mod, tree in trees.items():
        _, by, missed = table.get(mod, (0, (), ()))
        kept = {}  # label -> the never-executed defs it covers
        for name in missed:
            label = next((LABELS[k] for k in LABELS if name == k or name.startswith(k + ".")), "-")
            counts[label.split()[0]] = counts.get(label.split()[0], 0) + 1
            kept.setdefault(label, []).append(name)
        rows.append((mod, section(tree), str(len(options[mod])), str(len(state[mod])), " ".join(by) or "-",
                     "; ".join(f"{label}: {' '.join(names)}" for label, names in kept.items())))
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths + [0])).rstrip() for r in rows]
    lines.append(f"\n{len(trees)} modules, {len(ran) + sum(counts.values())} defs; never executed: "
                 + ", ".join(f"{n} {label}" for label, n in sorted(counts.items())))
    n_options = sum(map(len, options.values()))
    lines.append(f"defaulted parameters and dataclass fields nothing executed sets: {n_options} options, "
                 f"{sum(map(len, state.values()))} state (src assigns them after construction)")
    bad = problems(trees, table) + [f"unused import: {hit}" for hit in unused_imports()]
    if n_options > OPTIONS_BOUND:
        bad.append(f"{n_options} options, over the bound of {OPTIONS_BOUND}: set, delete or make a constant")
    return "\n".join(lines), bad


def _loads(tree) -> set:
    """The name of every ``ast.Name`` that ``tree`` loads (``ast.walk`` costs twice this)."""
    out, todo = set(), [tree]
    while todo:
        n = todo.pop()
        if n.__class__ is ast.Name:
            if n.ctx.__class__ is ast.Load:
                out.add(n.id)
            continue
        for value in map(n.__getattribute__, n._fields):
            if value.__class__ is list:
                todo += [v for v in value if isinstance(v, ast.AST)]
            elif isinstance(value, ast.AST):
                todo.append(value)
    return out


def unused_imports(root: pathlib.Path = ROOT) -> list:
    """``path:line: name`` of each top-level import under ``src/``, ``tests/``, ``benchmarks/`` or ``examples/``
    whose name its module never loads; an ``__init__.py`` (it re-exports) and a name in ``__all__`` are exempt."""
    out = []
    gc.disable()
    try:
        for path in sorted(p for top in ("src", "tests", "benchmarks", "examples") for p in (root / top).rglob("*.py")
                           if p.name != "__init__.py"):
            tree = ast.parse(path.read_text())
            used = _loads(tree)
            used |= {c.value for stmt in tree.body if isinstance(stmt, ast.Assign)
                     and any(getattr(t, "id", "") == "__all__" for t in stmt.targets)
                     for c in ast.walk(stmt.value) if isinstance(c, ast.Constant)}
            out += [f"{path.relative_to(root)}:{stmt.lineno}: {name}" for stmt in tree.body
                    if isinstance(stmt, (ast.Import, ast.ImportFrom)) and getattr(stmt, "module", "") != "__future__"
                    for name in (a.asname or a.name.split(".")[0] for a in stmt.names) if name not in used]
    finally:
        gc.enable()
    return out


def test_census(emit):
    text, bad = census()
    emit("census", text)
    assert not bad, bad


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


def stale_doc_names(docs=(ROOT / "DESIGN.md", ROOT / "README.md"), src=SRC, roadmap=ROOT / "ROADMAP.md",
                    labels=None) -> list:
    """``file:line: name`` for each name in a code span or fenced block that is stale: a ``Class.member``
    whose ``Class`` is a class of ``src`` that defines no ``member``, a bare capitalised name in a code span
    (not after a ``.``) that no ``src`` / ``tests`` / ``benchmarks`` / ``examples`` file defines as a class,
    def or constant and that is no builtin, a ``tests/…py`` or ``benchmarks/…py``
    path (a glob) that matches no file, a ``test_*`` / ``Test*`` name nothing under ``tests/`` or
    ``benchmarks/`` defines, a ``python -m repro.…`` that names no ``.py`` file and no package with a
    ``__main__.py``, another dotted ``repro.a.b`` (lower-case parts; a schema tag's ``/N`` ends it) that
    names no module or package, or a capitalised name after a module path of ``src`` (``apps.redis.X`` or
    ``repro.apps.redis.X``) that the path does not name or the module does not define at top level (a
    lower-case tail is read as a tracer layer or metric name, which share those spellings).  A code span is
    a run of backticks closed by a run as long, and may wrap over one line break, never over a blank line.
    Then each ``ROADMAP item N`` / ``ROADMAP N`` citation anywhere in ``docs`` or a ``src`` module, and each
    ``item N`` label (``census.LABELS: item N``), whose ``N`` is no item under ``roadmap``'s ``## Open items``
    (a ``- **N.`` or ``- **N(`` heading not marked ``(**done**``); an ``N(x)`` citation needs an ``N(x)``
    heading or an ``(x)`` sub-bullet under item ``N``."""

    def module(dotted, package_file):  # a .py file, or a package directory holding package_file
        path = src.parent.joinpath(*dotted.split("."))
        return path.with_suffix(".py").is_file() or (path / package_file).is_file()

    trees = parse(src)
    members = class_members(trees)
    tops = {}  # package-relative module ("apps.redis", "rack") -> the names it defines or imports at top level
    for dotted, tree in trees.items():
        names = tops.setdefault(dotted.split(".", 1)[-1].removesuffix("__init__").rstrip("."), set())
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(stmt.name)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                names.update((alias.asname or alias.name).split(".")[0] for alias in stmt.names)
            else:
                names.update(n.id for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))

    def top_level(m):  # a path that does not start at a package of src is not ours to check
        parts = m.group(1).removeprefix("repro.").split(".")
        return parts[0] not in tops or m.group(2) in tops.get(".".join(parts), ())
    texts = {top: [path.read_text() for path in (src if top == "src" else ROOT / top).rglob("*.py")]
             for top in ("src", "tests", "benchmarks", "examples")}
    defined = {name for top in ("tests", "benchmarks") for text in texts[top]
               for name in re.findall(r"^\s*(?:def|class) (\w+)", text, re.M)}
    known = set(dir(builtins)) | {  # a class, def or capitalised constant
        name for text in (t for ts in texts.values() for t in ts)
        for pair in re.findall(r"^\s*(?:(?:def|class) (\w+)|([A-Z]\w*)\s*(?::[^=\n]*)?=(?!=))", text, re.M)
        for name in pair if name}
    bare = (r"(?<![\w.])[A-Z][A-Za-z0-9]*[a-z]\w*", lambda m: m.group(0) in known)  # code spans only
    checks = (  # (pattern, is the match a name that exists)
        (r"(?<!\w)([A-Z]\w*)\.([A-Za-z_]\w*)", lambda m: m.group(2) in members.get(m.group(1), {m.group(2)})),
        (r"(?<![\w/.])(?:tests|benchmarks)/[\w/*.-]*\.py\b", lambda m: any(ROOT.glob(m.group(0)))),
        (r"(?<![\w/.])(?:test_|Test)\w*(?![\w.])", lambda m: m.group(0) in defined),
        (r"python -m (repro(?:\.\w+)*)", lambda m: module(m.group(1), "__main__.py")),
        (r"(?<![\w.])(?<!-m )repro(?:\.[a-z_]\w*)+(?![\w/])", lambda m: module(m.group(0), "__init__.py")),
        (r"(?<![\w.])([a-z_]\w*(?:\.[a-z_]\w*)*)\.([A-Z]\w*)", top_level),
    )
    fence, stale = re.compile(r"^```.*?^```", re.S | re.M), []
    for doc in docs:
        text = doc.read_text()
        blanked = fence.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), text)  # offsets kept
        spans = [(span, checks) for span in fence.finditer(text)]
        spans += [(span, checks + (bare,))  # a run of backticks closes on a run as long
                  for span in re.finditer(r"(?<!`)(`+)(?!`)([^`\n]+(?:\n(?![ \t]*\n)[^`\n]+)?)\1(?!`)", blanked)]
        refs = sorted({(span.start() + ref.start(), ref.group(0)) for span, kinds in spans
                       for pattern, exists in kinds
                       for ref in re.finditer(pattern, span.group(0)) if not exists(ref)})
        stale += [f"{doc.name}:{text.count(chr(10), 0, at) + 1}: {ref}" for at, ref in refs]
    section = re.search(r"^## Open items\n(.*?)(?=^## |\Z)", roadmap.read_text(), re.S | re.M).group(1)
    items, item = set(), None  # open "N" and "N(x)": an N(x) heading, or an (x) sub-bullet under N
    for line in section.splitlines():
        heading = re.match(r"- \*\*(\d+)(\([a-z]\))?\.", line)
        if heading:
            item = None if "(**done**" in line else heading.group(1)
            if item:
                items |= {item, item + (heading.group(2) or "")}
        elif item and re.match(r"  - \([a-z]\) ", line):
            items.add(item + line[4:7])
    cited = [(doc.name, doc.read_text()) for doc in docs]
    cited += [(path.relative_to(src.parent).as_posix(), path.read_text()) for path in sorted(src.rglob("*.py"))]
    for name, text in cited:
        stale += [f"{name}:{text.count(chr(10), 0, ref.start()) + 1}: {' '.join(ref.group(0).split())}"
                  for ref in re.finditer(r"ROADMAP\s+(?:item\s+)?(\d+(?:\([a-z]\))?)", text)
                  if ref.group(1) not in items]
    labels = LABELS if labels is None else labels
    stale += [f"census.LABELS: {label}" for label in dict.fromkeys(labels.values())
              if label.startswith("item ") and label[5:] not in items]
    return stale


def test_docs_name_members_that_exist():
    stale = stale_doc_names()
    assert not stale, f"backticked names that do not exist, or citations of no open ROADMAP item: {stale}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--run"]:
        sys.exit("usage: python benchmarks/census.py --run")
    trees = parse(SRC)
    EXECUTED.write_text(executed_text(trees, record()) + "\n")
    bad = problems(trees, read_executed(EXECUTED.read_text()))
    print("\n".join(bad) or f"wrote {EXECUTED.relative_to(ROOT)}")
    sys.exit(1 if bad else 0)
