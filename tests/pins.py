"""Every value pinned on a simulated run lives in ``tests/pins.json``, keyed by test id.

A test asks for the ``pin`` fixture and calls ``pin(value)`` with what its run produced.  The
value is rendered into the file under the test's id by the rule the experiment tables follow
(``benchmarks/conftest.py``'s ``regenerate``): an entry that differs, or is missing, is
rewritten and the test fails naming its id.  A model change is re-pinned by running tier-1
without ``-x`` and reviewing ``git diff tests/pins.json``: the diff is the table of what moved.
"""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PINS = ROOT / "tests" / "pins.json"
#: a value whose JSON fits on one line of this width is written on one line
WIDTH = 100

_spec = importlib.util.spec_from_file_location("benchmarks_conftest", ROOT / "benchmarks" / "conftest.py")
_benchmarks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_benchmarks)
regenerate = _benchmarks.regenerate

#: collector id -> the ids of what it collected, filled by ``tests/conftest.py`` as collection runs
COLLECTED = {}


def render(value, indent: str = "") -> str:
    """Sorted-key JSON, one line per value that fits in :data:`WIDTH`, so a diff names each change."""
    flat = json.dumps(value, sort_keys=True)
    if len(indent) + len(flat) <= WIDTH or not isinstance(value, (dict, list, tuple)) or not value:
        return flat
    inner = indent + "  "
    if isinstance(value, dict):
        rows = [f"{inner}{json.dumps(k)}: {render(v, inner)}" for k, v in sorted(value.items())]
        return "{\n" + ",\n".join(rows) + f"\n{indent}}}"
    return "[\n" + ",\n".join(inner + render(v, inner) for v in value) + f"\n{indent}]"


def check(path: pathlib.Path, test_id: str, value) -> None:
    """Hold ``value`` to the entry ``test_id`` of the pin file at ``path``."""
    pins = json.loads(path.read_text()) if path.exists() else {}
    pins[test_id] = value
    regenerate(path, (render(pins) + "\n").encode("utf-8"), test_id)


def orphans(test_ids, collected) -> list:
    """The ids naming no test: a file that does not exist, or a collector (module, class) that
    was collected without that child.  An id under a collector this session did not collect is
    not judged, so a partial run judges only what it collected."""
    out = []
    for test_id in test_ids:
        parts = test_id.split("::")
        prefixes = ["::".join(parts[:i]) for i in range(1, len(parts) + 1)]
        if not (ROOT / parts[0]).is_file() or any(
            parent in collected and child not in collected[parent]
            for parent, child in zip(prefixes, prefixes[1:])
        ):
            out.append(test_id)
    return out
