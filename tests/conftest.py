"""Shared fixtures for the test suite."""

import functools

import pytest

from repro.rack import RackConfig, RackMachine
from tests import pins


def pytest_collectreport(report):
    if report.passed:
        pins.COLLECTED[report.nodeid] = {node.nodeid for node in report.result}


@pytest.fixture
def pin(request):
    """``pin(value)``: hold this test's run to its entry in ``tests/pins.json``."""
    return functools.partial(pins.check, pins.PINS, request.node.nodeid)


@pytest.fixture
def machine():
    """A two-node rack matching the paper's physical testbed shape."""
    return RackMachine(RackConfig(n_nodes=2))


@pytest.fixture
def ctx0(machine):
    return machine.context(0)


@pytest.fixture
def ctx1(machine):
    return machine.context(1)


@pytest.fixture
def rack2():
    """(machine, ctx0, ctx1, arena) on the paper's two-node shape."""
    from repro.flacdk.arena import Arena

    machine = RackMachine(
        RackConfig(n_nodes=2, global_mem_size=1 << 26, local_mem_size=1 << 23)
    )
    arena = Arena(machine.global_base, machine.global_size)
    return machine, machine.context(0), machine.context(1), arena


@pytest.fixture
def memsys(rack2):
    from repro.core.memory import MemorySystem

    machine, _, _, arena = rack2
    return MemorySystem(machine, arena)
