#!/usr/bin/env python
"""Big-data shuffle on the rack: the §3.4 analytics scenario.

Runs a word-count-style MapReduce job whose shuffle goes through FlacFS
(spills written once, read in place by reducers on other nodes) and
compares it with the conventional TCP shuffle.

Run:  python examples/bigdata_shuffle.py
"""

from collections import Counter

from repro.apps.shuffle import FlacShuffle, run_shuffle_job
from repro.bench import build_rig
from repro.workloads import KeyGenerator, ValueGenerator

TEXT = (
    "one rack one computer the rack is the computer shared memory makes "
    "the rack one computer and the shuffle needs no network at all"
).split()


def main() -> None:
    print("== word count over a FlacFS shuffle ==")
    rig = build_rig()
    shuffle = FlacShuffle(rig.kernel.fs, job_id="wordcount")
    n_partitions = 2

    # map: two mappers (one per node) emit (word, "1") pairs
    half = len(TEXT) // 2
    for mapper, (ctx, words) in enumerate(
        ((rig.c0, TEXT[:half]), (rig.c1, TEXT[half:]))
    ):
        records = [(word.encode(), b"1") for word in words]
        shuffle.run_map(ctx, mapper, records, n_partitions)

    # reduce: each partition is reduced on the *other* node — the spill
    # bytes never move, the reducers read them in place
    counts = Counter()
    for partition in range(n_partitions):
        ctx = (rig.c1, rig.c0)[partition % 2]
        for key, _ in shuffle.run_reduce(ctx, partition, n_mappers=2):
            counts[key.decode()] += 1
    top = counts.most_common(4)
    print("top words:", ", ".join(f"{w}={c}" for w, c in top))
    assert counts == Counter(TEXT)

    print("\n== FlacFS vs TCP shuffle at scale ==")
    keys = KeyGenerator(1 << 20, seed=5)
    values = ValueGenerator(1024, seed=5)
    records = {
        m: [
            (keys.key(m * 250 + i), values.value_for(keys.key(m * 250 + i)))
            for i in range(250)
        ]
        for m in range(4)
    }
    rig_f = build_rig()
    out_f, rep_f = run_shuffle_job(
        "flacos", {0: rig_f.c0, 1: rig_f.c1}, {0: rig_f.c1, 1: rig_f.c0},
        records, 4, fs=rig_f.kernel.fs,
    )
    rig_n = build_rig()
    out_n, rep_n = run_shuffle_job(
        "network", {0: rig_n.c0, 1: rig_n.c1}, {0: rig_n.c1, 1: rig_n.c0}, records, 4
    )
    assert out_f == out_n
    print(f"{'strategy':<9} {'map (us)':>10} {'reduce (us)':>12} {'total (us)':>11} {'wire bytes':>11}")
    for rep in (rep_f, rep_n):
        print(
            f"{rep.strategy:<9} {rep.map_makespan_ns / 1e3:>10.1f} "
            f"{rep.reduce_makespan_ns / 1e3:>12.1f} {rep.total_ns / 1e3:>11.1f} "
            f"{rep.bytes_over_wire:>11}"
        )
    print(
        f"\nreduce phase {rep_n.reduce_makespan_ns / rep_f.reduce_makespan_ns:.1f}x faster "
        f"through the shared page cache; zero bytes crossed a wire"
    )


if __name__ == "__main__":
    main()
