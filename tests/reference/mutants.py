"""Mutation check of the reference-rack oracle: each mutant below must be
caught by ``tests/reference/test_reference_rack.py`` within its tier-1 budget.

    PYTHONPATH=src python tests/reference/mutants.py

A mutant is one source edit of one method, patched into the imported class
(or of one function, into the module that calls it) in memory; the state
machine then runs with the test's own settings, minus shrinking.  Exits
non-zero if any survive: an oracle gone blind fails here.
"""

import inspect
import pathlib
import sys
import textwrap

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))

from hypothesis import Phase, settings  # noqa: E402
from hypothesis.stateful import run_state_machine_as_test  # noqa: E402

from repro.rack import machine as machine_module  # noqa: E402
from repro.rack.cache import NodeCache  # noqa: E402
from repro.rack.machine import RackMachine  # noqa: E402
from tests.reference.test_reference_rack import RackVsReference  # noqa: E402

M, C = RackMachine, NodeCache
#: (what it breaks, class, method, source text, replacement); each is caught
#: under at least 9 of 10 random seeds at this budget (all but two under 10 of
#: 10: skip move_to_end on a store hit, the atomic hit path's line drop), and
#: by the test's own run.
MUTANTS = [
    ("drop the write-back charge", M, "_write_back", "written, lat.writeback_line_ns)", "written, 0.0)"),
    ("skip move_to_end on a load hit", C, "load",
     "lines.move_to_end(base)\n            self.stats.hits += 1", "self.stats.hits += 1"),
    ("skip move_to_end on a store hit", C, "store", "lines.move_to_end(base)\n        line", "line"),
    ("skip the atomic's line drop", M, "_atomic_prologue",
     "cache._lines.pop(addr & ~self._line_mask, None)", "None"),
    ("charge a hit as a miss", M, "_plain",
     "self._charge(node, hits, lat.cache_hit_ns, region, misses,",
     "self._charge(node, 0, 0.0, region, hits + misses,"),
    ("reorder the charge's float additions", M, "_charge",
     "ns += (lines - 1) * rest\n        ns += lines * extra",
     "ns += lines * extra\n        ns += (lines - 1) * rest"),
    ("fill a node's TLB before its protection check", M, "_resolve_fast",
     "region, offset = self.address_map.resolve(addr, size)\n",
     "region, offset = self.address_map.resolve(addr, size)\n"
     "    self._tlb[node_id] = (self.nodes[node_id], region.base, region.base + region.size, region)\n"),
    ("evict the most recent line", C, "_insert", "popitem(last=False)", "popitem(last=True)"),
    ("vectorize a batch over poison", M, "_held",
     "device.poisoned and device.is_poisoned(window.offset, window.slots.nbytes)", "False"),
    ("vectorize atomics over a resident line", M, "_atomic_window",
     "node.cache.holds_any(ref.addrs())", "False"),
    ("write back without clearing poison", M, "_write_backing",
     "region.device.clear_poison(offset, size)", "None"),
    ("one read_backing call for a multi-line run under armed rates", M, "_read_backing",
     "if size > self.line_size:\n            return None\n        self._maybe_fault",
     "self._maybe_fault"),
    ("roll a bypass burst's dice before its charge", M, "_plain",
     "self._charge(node, 0, 0.0, region, -(-size // self.line_size) or 1)\n"
     "        device = region.device\n        if not clean:\n"
     "            self._maybe_fault(region, offset, size, node_id)\n",
     "device = region.device\n        if not clean:\n"
     "            self._maybe_fault(region, offset, size, node_id)\n"
     "        self._charge(node, 0, 0.0, region, -(-size // self.line_size) or 1)\n"
     "        if not clean:\n"),
    ("an atomic rolls no dice", M, "_atomic_prologue",
     "self._maybe_fault(region, offset, 8, node_id)", "None"),
    ("drop an atomic's atlas touch", M, "_atomic_record", "_TEL.atlas.touch(addr, 8)", "None"),
    ("drop the write-back count", M, "_write_back",
     '_TEL.count(node_id, _SUB, "cache.writeback_lines", written)', "None"),
    ("vectorize a batch whose issuer's port is severed", M, "_price",
     "region.owner is None and not self.fabric.reachable(node_id)", "False"),
    ("the one-line miss skips stats.misses", C, "load",
     "self.stats.misses += 1\n        return buf", "return buf"),
    ("the resident-run store leaves a line clean", C, "store",
     "lines.move_to_end(base)\n            hits += 1\n",
     "lines.move_to_end(base)\n            hits += 1\n"
     "            line.data[lo:hi] = chunk\n            continue\n"),
    ("the atomic hit path skips the alive check", M, "atomic_load",
     "addr + 8 <= end and node.alive", "addr + 8 <= end"),
    ("the atomic hit path skips its line drop", M, "atomic_load",
     "node.cache._lines.pop(addr & ~self._line_mask, None)", "None"),
    ("a held store writes its rows in sorted-slot order", M, "store_many",
     "slots[idx] = rows.take(idx)", "slots[np.sort(idx)] = rows.take(idx)"),
    ("a held store reads the row table as the batch's packed rows", M, "store_many",
     "slots[idx] = rows.take(idx)", "slots[idx] = rows[: len(idx)]"),
    ("a held batch's fold charges one op fewer", M, "_held",
     "fold_adds(clock._now_ns, price, n)", "fold_adds(clock._now_ns, price, n - 1)"),
    ("a window price reused across a fabric generation change", M, "_held",
     "if window.fabric_gen != fabric.generation:", "if window.fabric_gen is None:"),
    ("a fold that returns clock + n * ns", machine_module, "fold_adds",
     "return (m + n * d) * u", "return clock + n * ns"),
    ("a held store's loop writes its rows in sorted-slot order", M, "store_many",
     "for a, k in zip(ref.addrs().tolist(), ref.idx.tolist()):",
     "for a, k in sorted(zip(ref.addrs().tolist(), ref.idx.tolist())):"),
]


def mutate(cls, name, old, new):
    """Patch ``cls.name`` with ``old`` replaced by ``new``; returns the original."""
    original = cls.__dict__[name]
    source = textwrap.dedent(inspect.getsource(original))
    if source.count(old) != 1:
        raise SystemExit(f"{cls.__name__}.{name} does not contain {old!r} exactly once")
    scope, code = {}, compile(source.replace(old, new), inspect.getsourcefile(original), "exec")
    exec(code, vars(sys.modules[original.__module__]), scope)
    setattr(cls, name, scope[name])
    return original


def main() -> int:
    budget = settings(RackVsReference.TestCase.settings, phases=[Phase.generate])
    survivors = []
    for label, cls, name, old, new in MUTANTS:
        original = mutate(cls, name, old, new)
        try:
            run_state_machine_as_test(RackVsReference, settings=budget)
        except Exception as caught:  # the oracle disagreed: killed
            print(f"killed    {label} ({type(caught).__name__})")
        else:
            survivors.append(label)
            print(f"SURVIVED  {label}")
        finally:
            setattr(cls, name, original)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
