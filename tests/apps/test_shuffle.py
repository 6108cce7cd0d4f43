"""Tests for the big-data shuffle over FlacFS and its TCP baseline."""

import pytest

from repro.apps.shuffle import (
    FlacShuffle,
    decode_records,
    encode_records,
    partition_of,
    run_shuffle_job,
)
from repro.bench import build_rig
from repro.workloads import KeyGenerator, ValueGenerator


def _records(n_mappers=2, per_mapper=40, value_size=64):
    keys = KeyGenerator(10_000, seed=3)
    values = ValueGenerator(value_size, seed=3)
    return {
        m: [
            (keys.key(m * per_mapper + i), values.value_for(keys.key(m * per_mapper + i)))
            for i in range(per_mapper)
        ]
        for m in range(n_mappers)
    }


class TestEncoding:
    def test_round_trip(self):
        records = [(b"k1", b"v1"), (b"key-two", b""), (b"", b"value")]
        assert decode_records(encode_records(records)) == records

    def test_empty(self):
        assert decode_records(encode_records([])) == []

    def test_partitioning_is_stable_and_in_range(self):
        for key in (b"a", b"b", b"zebra"):
            p = partition_of(key, 7)
            assert 0 <= p < 7
            assert partition_of(key, 7) == p


class TestFlacShuffle:
    def test_every_record_lands_in_its_partition(self):
        rig = build_rig()
        shuffle = FlacShuffle(rig.kernel.fs)
        records = _records()
        for mapper, recs in records.items():
            shuffle.run_map((rig.c0, rig.c1)[mapper % 2], mapper, recs, 4)
        seen = []
        for partition in range(4):
            out = shuffle.run_reduce(rig.c1, partition, len(records))
            for key, _ in out:
                assert partition_of(key, 4) == partition
            seen.extend(out)
        everything = sorted(r for recs in records.values() for r in recs)
        assert sorted(seen) == everything

    def test_reducers_on_any_node_see_all_spills(self):
        rig = build_rig()
        shuffle = FlacShuffle(rig.kernel.fs)
        records = _records()
        for mapper, recs in records.items():
            shuffle.run_map(rig.c0, mapper, recs, 2)  # all mappers on node 0
        from_node0 = shuffle.run_reduce(rig.c0, 0, 2)
        from_node1 = shuffle.run_reduce(rig.c1, 0, 2)
        assert from_node0 == from_node1

    def test_missing_spills_tolerated(self):
        rig = build_rig()
        shuffle = FlacShuffle(rig.kernel.fs)
        shuffle.run_map(rig.c0, 0, [(b"only-key", b"v")], 8)
        # mapper 1 never ran; reducers must not fail on its absence
        total = sum(len(shuffle.run_reduce(rig.c1, p, 2)) for p in range(8))
        assert total == 1


class TestParity:
    def test_both_strategies_produce_identical_output(self):
        records = _records(n_mappers=3, per_mapper=30)
        rig = build_rig()
        out_f, rep_f = run_shuffle_job(
            "flacos", {0: rig.c0, 1: rig.c1}, {0: rig.c1, 1: rig.c0},
            records, 4, fs=rig.kernel.fs,
        )
        rig2 = build_rig()
        out_n, rep_n = run_shuffle_job(
            "network", {0: rig2.c0, 1: rig2.c1}, {0: rig2.c1, 1: rig2.c0}, records, 4
        )
        assert out_f == out_n
        assert rep_f.bytes_over_wire == 0
        assert rep_n.bytes_over_wire > 0

    def test_flacos_reduce_phase_is_faster(self):
        records = _records(n_mappers=4, per_mapper=60, value_size=256)
        rig = build_rig()
        _, rep_f = run_shuffle_job(
            "flacos", {0: rig.c0, 1: rig.c1}, {0: rig.c1, 1: rig.c0},
            records, 4, fs=rig.kernel.fs,
        )
        rig2 = build_rig()
        _, rep_n = run_shuffle_job(
            "network", {0: rig2.c0, 1: rig2.c1}, {0: rig2.c1, 1: rig2.c0}, records, 4
        )
        assert rep_f.reduce_makespan_ns < rep_n.reduce_makespan_ns

    def test_unknown_strategy_rejected(self):
        rig = build_rig()
        with pytest.raises(ValueError):
            run_shuffle_job("pigeon", {0: rig.c0}, {0: rig.c1}, {0: []}, 1)
        with pytest.raises(ValueError):
            run_shuffle_job("flacos", {0: rig.c0}, {0: rig.c1}, {0: []}, 1, fs=None)
