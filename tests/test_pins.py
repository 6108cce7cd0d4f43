"""The pin file (``tests/pins.json``): drift rewrites the entry and fails naming it, a model
change shows up as rewritten entries, and no entry outlives its test."""

import functools
import json
import shutil

import pytest

from repro.rack.params import LatencyModel
from tests import pins
from tests.rack import test_golden_latency

HERE = "tests/test_pins.py"
LINK_TAIL = "tests/telemetry/test_atlas.py::TestPinnedOutputs::test_recorder_link_tail_digest"


@pytest.fixture
def copy(tmp_path):
    path = tmp_path / "pins.json"
    shutil.copy(pins.PINS, path)
    return path


def test_check_passes_on_the_pinned_value_and_rewrites_then_fails_on_drift(copy):
    original = copy.read_bytes()
    entries = json.loads(original)
    value = entries[LINK_TAIL]
    pins.check(copy, LINK_TAIL, value)  # the pinned value passes and writes nothing
    assert copy.read_bytes() == original

    entries[LINK_TAIL] = "planted"  # one entry edited by hand
    copy.write_text(pins.render(entries) + "\n")
    with pytest.raises(pytest.fail.Exception, match=LINK_TAIL):
        pins.check(copy, LINK_TAIL, value)
    assert copy.read_bytes() == original  # exactly that entry rewritten
    pins.check(copy, LINK_TAIL, value)  # the next run passes

    del entries[LINK_TAIL]  # missing counts as drift
    copy.write_text(pins.render(entries) + "\n")
    with pytest.raises(pytest.fail.Exception, match=LINK_TAIL):
        pins.check(copy, LINK_TAIL, value)
    assert copy.read_bytes() == original


def test_a_latency_model_change_rewrites_the_golden_latency_entries(copy, monkeypatch):
    real = LatencyModel.__post_init__

    def planted(self):  # one more ns per fabric hop
        real(self)
        self.hop_ns += 1.0

    monkeypatch.setattr(LatencyModel, "__post_init__", planted)
    before = json.loads(copy.read_text())
    tests = ("test_golden_latency_all_topologies", "test_golden_eviction_charges",
             "test_seeded_fault_sequence_identical")
    for name in tests:
        test_id = f"tests/rack/test_golden_latency.py::{name}"
        with pytest.raises(pytest.fail.Exception, match=test_id):
            getattr(test_golden_latency, name)(functools.partial(pins.check, copy, test_id))
    after = json.loads(copy.read_text())
    assert {k for k in before if before[k] != after[k]} == {
        f"tests/rack/test_golden_latency.py::{name}" for name in tests}
    step = after["tests/rack/test_golden_latency.py::test_golden_latency_all_topologies"]
    assert step["dual_direct_1hop"]["steps"][0] == ["load_miss_1line", 0, 323.0]  # was 322.0


def test_every_pin_names_a_test():
    assert pins.orphans(json.loads(pins.PINS.read_text()), pins.COLLECTED) == []


def test_a_pin_whose_test_is_gone_is_an_orphan():
    collected = {HERE: {f"{HERE}::TestA", f"{HERE}::test_b[x]"}, f"{HERE}::TestA": {f"{HERE}::TestA::test_c"}}
    # a module this session did not collect is not judged
    kept = [f"{HERE}::TestA::test_c", f"{HERE}::test_b[x]", "tests/rack/test_golden_latency.py::test_z"]
    gone = [f"{HERE}::TestA::test_gone", f"{HERE}::test_b[y]", f"{HERE}::TestGone::test_c",
            "tests/nope.py::test_x"]
    assert pins.orphans(kept + gone, collected) == gone
