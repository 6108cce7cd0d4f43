"""E10 — §3.4 customer scenario: big-data shuffle through FlacFS.

The paper motivates memory file systems with "temporary data storage
and shuffle in big data analytics".  A MapReduce shuffle runs two ways:
spills written once into FlacFS and read in place by reducers on any
node, versus the conventional network shuffle that moves every byte
over TCP with serialisation.  The structural claims:

* FlacOS moves **zero** bytes over any wire;
* the reduce (communication) phase — the part that scales with data —
  is several times faster;
* the map phase pays a premium for writing into shared memory, which
  the communication savings repay.
"""

from repro.apps.shuffle import run_shuffle_job
from repro.bench import Table, build_rig
from repro.workloads import KeyGenerator, ValueGenerator

N_MAPPERS = 4
N_PARTITIONS = 4
VALUE_SIZES = (128, 512, 2048)
RECORDS_PER_MAPPER = 200


def _records(value_size):
    keys = KeyGenerator(1 << 20, seed=11)
    values = ValueGenerator(value_size, seed=11)
    return {
        m: [
            (
                keys.key(m * RECORDS_PER_MAPPER + i),
                values.value_for(keys.key(m * RECORDS_PER_MAPPER + i)),
            )
            for i in range(RECORDS_PER_MAPPER)
        ]
        for m in range(N_MAPPERS)
    }


def run_pair(value_size):
    records = _records(value_size)
    rig = build_rig()
    out_f, rep_f = run_shuffle_job(
        "flacos", {0: rig.c0, 1: rig.c1}, {0: rig.c1, 1: rig.c0},
        records, N_PARTITIONS, fs=rig.kernel.fs,
    )
    rig2 = build_rig()
    out_n, rep_n = run_shuffle_job(
        "network", {0: rig2.c0, 1: rig2.c1}, {0: rig2.c1, 1: rig2.c0},
        records, N_PARTITIONS,
    )
    assert out_f == out_n, "strategies disagree on shuffle output"
    return rep_f, rep_n


def run_all():
    return {size: run_pair(size) for size in VALUE_SIZES}


def test_shuffle_strategies(emit):
    results = run_all()
    table = Table(
        "E10 — MapReduce shuffle: FlacFS vs TCP (4 mappers, 4 partitions, 800 records)",
        ["value size", "strategy", "map (us)", "reduce (us)", "total (us)", "wire bytes"],
    )
    notes = []
    for size, (rep_f, rep_n) in results.items():
        for rep in (rep_f, rep_n):
            table.add_row(
                f"{size} B", rep.strategy, rep.map_makespan_ns / 1000,
                rep.reduce_makespan_ns / 1000, rep.total_ns / 1000, rep.bytes_over_wire,
            )
        notes.append(
            f"{size} B values: reduce phase {rep_n.reduce_makespan_ns / rep_f.reduce_makespan_ns:.1f}x "
            f"faster on FlacOS; end-to-end {rep_n.total_ns / rep_f.total_ns:.2f}x"
        )
    emit("E10_shuffle", table.render() + "\n" + "\n".join(notes))
    for size, (rep_f, rep_n) in results.items():
        assert rep_f.bytes_over_wire == 0
        assert rep_n.bytes_over_wire > 0
        assert rep_f.reduce_makespan_ns < rep_n.reduce_makespan_ns
    # communication savings must grow with the data size
    gains = [
        rep_n.reduce_makespan_ns / rep_f.reduce_makespan_ns
        for rep_f, rep_n in results.values()
    ]
    assert gains[-1] > gains[0]
    # and by the largest size the whole job wins end-to-end
    rep_f, rep_n = results[VALUE_SIZES[-1]]
    assert rep_f.total_ns < rep_n.total_ns
