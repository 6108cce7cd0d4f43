"""Run the full experiment suite from the command line.

``python -m repro.bench`` runs the paper-figure experiments E1..E14 under
``benchmarks/`` with pytest, prints the regenerated tables, and leaves
the rows in ``benchmarks/results/``; an experiment whose table no longer
matches the checked-in file fails, naming the file it rewrote.  Options:

    python -m repro.bench              # everything
    python -m repro.bench E1 E2        # just the named experiments
    python -m repro.bench --list       # what's available
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

_EXPERIMENTS = {
    "E1": ("bench_fig4_redis_latency.py", "Figure 4: Redis latency, FlacOS vs TCP"),
    "E2": ("bench_container_startup.py", "§4.2 container startup: cold/shared/hot"),
    "E3": ("bench_sync_methods.py", "§3.2 sync methods on non-coherent memory"),
    "E4": ("bench_page_cache.py", "§3.4 shared vs private page cache"),
    "E5": ("bench_ipc_transport.py", "§3.5 transports by message size"),
    "E6": ("bench_fault_recovery.py", "§3.6 fault boxes & adaptive redundancy"),
    "E7": ("bench_serverless.py", "§4.1 serverless startup/chains/density"),
    "E8": ("bench_memory_system.py", "§3.3 shared page table, shootdown, dedup"),
    "E9": ("bench_allocator.py", "§3.2 allocator, packing, tiering"),
    "E10": ("bench_shuffle.py", "§3.4 big-data shuffle, FlacFS vs TCP"),
    "E11": ("bench_far_memory.py", "§3.3 swap/zswap vs plain global memory"),
    "E12": ("bench_collectives.py", "§3.4 HPC collectives over shared memory"),
    "E13": ("bench_ycsb.py", "YCSB mixes over FlacOS IPC vs TCP"),
    "E14": ("bench_topology.py", "§2.2 hops/switches: latency + fault surface"),
}


def main(argv: list) -> int:
    benchmarks_dir = pathlib.Path(__file__).resolve().parents[3] / "benchmarks"
    if not benchmarks_dir.is_dir():
        print(f"benchmarks directory not found at {benchmarks_dir}", file=sys.stderr)
        return 2

    if "--list" in argv:
        for exp_id, (filename, title) in _EXPERIMENTS.items():
            print(f"{exp_id:>4}  {title}  ({filename})")
        return 0

    wanted = [a for a in argv if not a.startswith("-")] or list(_EXPERIMENTS)
    unknown = [w for w in wanted if w not in _EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {unknown}; try --list", file=sys.stderr)
        return 2

    targets = [str(benchmarks_dir / _EXPERIMENTS[w][0]) for w in wanted]
    command = [
        sys.executable, "-m", "pytest", *targets,
        "-q", "-s", "-p", "no:cacheprovider",
    ]
    print("running:", " ".join(wanted))
    result = subprocess.run(command)
    if result.returncode == 0:
        print(f"\nregenerated rows are in {benchmarks_dir / 'results'}/")
    return result.returncode


if __name__ == "__main__":
    try:
        raise SystemExit(main(sys.argv[1:]))
    except BrokenPipeError:  # stdout piped into head etc.
        raise SystemExit(0)
