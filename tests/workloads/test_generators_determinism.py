"""Generator determinism: keys per seed, and a value is a pure function of its key."""

import numpy as np

from repro.workloads.generators import KeyGenerator, ValueGenerator


def test_lognormal_sizes_vary_by_key_but_not_by_call():
    values = ValueGenerator(size=64, sigma=1.0, seed=0)
    keys = [b"key:%d" % i for i in range(200)]
    sizes_a = [len(values.value_for(k)) for k in keys]
    sizes_b = [len(values.value_for(k)) for k in keys]
    assert sizes_a == sizes_b  # pure: repeat calls agree
    assert len(set(sizes_a)) > 10  # but sizes genuinely vary across keys
    # centred near the configured size in log space
    assert 32 < float(np.median(sizes_a)) < 128


def test_draw_indices_matches_draw():
    a = KeyGenerator(128, distribution="zipf", zipf_s=1.5, seed=3)
    b = KeyGenerator(128, distribution="zipf", zipf_s=1.5, seed=3)
    assert a.draw(500) == [b.key(int(i)) for i in b.draw_indices(500)]
