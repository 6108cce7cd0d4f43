"""Tests for the workload generators and the bench harness."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import Table, build_rig, check_ratio
from repro.workloads import KeyGenerator, RequestStream, ValueGenerator


class TestKeyGenerator:
    def test_deterministic_given_seed(self):
        a = KeyGenerator(100, seed=7).draw(50)
        b = KeyGenerator(100, seed=7).draw(50)
        assert a == b

    def test_keys_within_keyspace(self):
        gen = KeyGenerator(10, seed=1)
        keys = set(gen.draw(200))
        assert keys <= {gen.key(i) for i in range(10)}

    def test_zipf_is_skewed(self):
        uniform = KeyGenerator(1000, "uniform", seed=3).draw(5000)
        zipf = KeyGenerator(1000, "zipf", zipf_s=1.3, seed=3).draw(5000)
        top_uniform = Counter(uniform).most_common(1)[0][1]
        top_zipf = Counter(zipf).most_common(1)[0][1]
        assert top_zipf > top_uniform * 3

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            KeyGenerator(0)
        with pytest.raises(ValueError):
            KeyGenerator(10, "normal")
        with pytest.raises(ValueError):
            KeyGenerator(10, "zipf", zipf_s=0.5)


class TestValueGenerator:
    def test_fixed_size(self):
        gen = ValueGenerator(size=128)
        assert len(gen.value_for(b"k")) == 128

    def test_deterministic_per_key(self):
        gen = ValueGenerator(size=64)
        assert gen.value_for(b"a") == gen.value_for(b"a")
        assert gen.value_for(b"a") != gen.value_for(b"b")

    def test_lognormal_sizes_vary(self):
        gen = ValueGenerator(size=100, sigma=1.0, seed=5)
        sizes = {len(gen.value_for(b"k%d" % i)) for i in range(50)}
        assert len(sizes) > 10


class TestRequestStream:
    def test_mix_ratio_roughly_respected(self):
        stream = RequestStream(
            KeyGenerator(100, seed=1), ValueGenerator(32), get_ratio=0.8, seed=1
        )
        requests = list(stream.generate(1000))
        gets = sum(1 for r in requests if r.op == "get")
        assert 700 < gets < 900

    def test_sets_carry_values_gets_do_not(self):
        stream = RequestStream(KeyGenerator(10, seed=2), ValueGenerator(16), seed=2)
        for request in stream.generate(100):
            if request.op == "set":
                assert len(request.value) == 16
            else:
                assert request.value == b""

    def test_preload_covers_keyspace(self):
        stream = RequestStream(KeyGenerator(25, seed=0), ValueGenerator(8))
        preload = list(stream.preload())
        assert len(preload) == 25
        assert len({r.key for r in preload}) == 25

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            RequestStream(KeyGenerator(10), ValueGenerator(8), get_ratio=1.5)


@settings(max_examples=20, deadline=None)
@given(n_keys=st.integers(1, 50), count=st.integers(0, 100), seed=st.integers(0, 10))
def test_stream_is_reproducible(n_keys, count, seed):
    def run():
        stream = RequestStream(
            KeyGenerator(n_keys, seed=seed), ValueGenerator(16, seed=seed), seed=seed
        )
        return [(r.op, r.key, r.value) for r in stream.generate(count)]

    assert run() == run()


class TestHarness:
    def test_build_rig_boots_kernel(self):
        rig = build_rig()
        fd = rig.kernel.fs.open(rig.c0, "/t", create=True)
        rig.kernel.fs.write(rig.c0, fd, 0, b"boot ok")
        assert rig.kernel.fs.read(rig.c1, rig.kernel.fs.open(rig.c1, "/t"), 0, 7) == b"boot ok"

    def test_table_rendering(self):
        table = Table("demo", ["a", "b"])
        table.add_row("x", 1.5)
        text = table.render()
        assert "demo" in text and "1.50" in text
        with pytest.raises(ValueError):
            table.add_row("only-one")

    def test_check_ratio_bands(self):
        ok, _ = check_ratio("t", 2.0, 1.75, 2.4)
        assert ok
        ok, message = check_ratio("t", 10.0, 1.75, 2.4)
        assert not ok and "OUTSIDE" in message
