"""Tests for the YCSB workload generators."""

from collections import Counter

import pytest

from repro.workloads.ycsb import WORKLOADS, YcsbConfig, YcsbWorkload


class TestPhases:
    def test_load_phase_covers_keyspace(self):
        workload = YcsbWorkload("A", YcsbConfig(n_keys=50))
        commands = list(workload.load_phase())
        assert len(commands) == 50
        assert all(cmd[0] == b"SET" for cmd in commands)
        assert len({cmd[1] for cmd in commands}) == 50

    def test_run_phase_deterministic(self):
        def run():
            workload = YcsbWorkload("A", YcsbConfig(seed=4))
            return list(workload.run_phase(100))

        assert run() == run()

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            YcsbWorkload("Z")

    def test_lowercase_accepted(self):
        assert YcsbWorkload("a").letter == "A"


class TestMixes:
    def _mix(self, letter, ops=600):
        workload = YcsbWorkload(letter, YcsbConfig(seed=2))
        return Counter(command[0].decode() for command in workload.run_phase(ops))

    def test_a_is_half_updates(self):
        mix = self._mix("A")
        total = sum(mix.values())
        assert 0.4 < mix["SET"] / total < 0.6

    def test_b_is_read_mostly(self):
        mix = self._mix("B")
        total = sum(mix.values())
        assert mix["GET"] / total > 0.9

    def test_c_is_read_only(self):
        mix = self._mix("C")
        assert set(mix) == {"GET"}

    def test_d_inserts_fresh_keys(self):
        workload = YcsbWorkload("D", YcsbConfig(n_keys=20, seed=3))
        commands = list(workload.run_phase(400))
        inserts = [c for c in commands if c[0] == b"SET"]
        assert inserts, "workload D must insert"
        assert all(c[1].startswith(b"latest:") for c in inserts)
        # reads skew towards the inserted tail
        latest_reads = [c for c in commands if c[0] == b"GET" and c[1].startswith(b"latest:")]
        assert latest_reads

    def test_f_pairs_read_with_write(self):
        workload = YcsbWorkload("F", YcsbConfig(seed=5))
        commands = list(workload.run_phase(50))
        assert len(commands) == 100  # each op is GET+SET
        for get_cmd, set_cmd in zip(commands[::2], commands[1::2]):
            assert get_cmd[0] == b"GET" and set_cmd[0] == b"SET"
            assert get_cmd[1] == set_cmd[1]  # same key

    def test_zipf_skew_present(self):
        workload = YcsbWorkload("C", YcsbConfig(n_keys=500, seed=6))
        commands = list(workload.run_phase(2000))
        counts = {}
        for cmd in commands:
            counts[cmd[1]] = counts.get(cmd[1], 0) + 1
        top_share = max(counts.values()) / len(commands)
        assert top_share > 0.05  # zipf: the hottest key dominates uniform's 1/500


class TestEndToEnd:
    def test_every_workload_runs_clean_on_miniredis(self):
        from repro.apps.redis import connect_over_flacos
        from repro.bench import build_rig

        for letter in WORKLOADS:
            rig = build_rig()
            client, _ = connect_over_flacos(rig.kernel.ipc, rig.c0, rig.c1)
            workload = YcsbWorkload(letter, YcsbConfig(n_keys=25, seed=8))
            for command in workload.load_phase():
                client.request(*command)
            for command in workload.run_phase(30):
                client.request(*command)  # raises on any server error


class TestBatchedPhase:
    def test_batched_stream_flattens_to_unbatched(self):
        """Coalescing is a pure transport optimisation: expanding every
        MGET back to GETs must reproduce the unbatched stream exactly."""
        for letter in WORKLOADS:
            plain = list(
                YcsbWorkload(letter, YcsbConfig(seed=11)).run_phase(200)
            )
            batched = list(
                YcsbWorkload(letter, YcsbConfig(seed=11)).run_phase_batched(
                    200, max_batch=7
                )
            )
            flat = []
            for command in batched:
                if command[0] == b"MGET":
                    flat.extend((b"GET", key) for key in command[1:])
                else:
                    flat.append(command)
            assert flat == plain, letter

    def test_batch_bounds_and_single_gets_stay_gets(self):
        workload = YcsbWorkload("B", YcsbConfig(seed=3))
        batched = list(workload.run_phase_batched(300, max_batch=5))
        assert any(cmd[0] == b"MGET" for cmd in batched)  # B is read-mostly
        for command in batched:
            if command[0] == b"MGET":
                assert 2 <= len(command) - 1 <= 5
            elif command[0] == b"GET":
                assert len(command) == 2

    def test_batched_runs_clean_on_miniredis(self):
        from repro.apps.redis import connect_over_flacos
        from repro.bench import build_rig

        rig = build_rig()
        client, _ = connect_over_flacos(rig.kernel.ipc, rig.c0, rig.c1)
        workload = YcsbWorkload("B", YcsbConfig(n_keys=25, seed=8))
        for command in workload.load_phase():
            client.request(*command)
        replies = client.pipeline(list(workload.run_phase_batched(60)))
        assert replies  # raises on any server error
