"""The perf benchmark's outside-in tracer patches a hand-kept table of
callables (``benchmarks/perf/tracer.py::TABLE``).  A refactor that moves
or renames one breaks the traced benchmark, which tier-1 does not run —
so check here, read-only, that every row still binds the way
``Tracer.install`` binds it."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "perf" / "tracer.py"


def _table():
    spec = importlib.util.spec_from_file_location("perf_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TABLE


def test_every_table_row_resolves_in_its_owners_own_dict():
    missing = []
    for _layer, module, qualname, *_ in _table():
        owner = importlib.import_module(module)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        # a method must sit in its class's own namespace (an inherited one
        # cannot be patched and put back); a function in its module's
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(f"{module}:{qualname}")
    assert not missing, f"tracer TABLE rows that no longer bind: {missing}"
