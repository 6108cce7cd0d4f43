"""The per-batch kernels of the open-loop request path, derived rather
than pinned: the admission proof never contradicts the per-request pass,
the in-place queue kernel is the scalar single-server recurrence, and the
scenario that leaves the proof's fast side (backlog shedding) still
produces the digest of the commit before the kernels."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.harness import build_rig
from repro.workloads import TenantSpec
from repro.workloads import traffic
from repro.workloads.resilience import ResilienceSpec, ResilientTrafficEngine
from repro.workloads.traffic import TrafficEngine

pytestmark = pytest.mark.traffic


# -- references, kept plain on purpose -------------------------------------------


def scalar_completions(arrivals, svc, busy_until_ns):
    """The queue model as its definition: one server, one request at a time."""
    out, done = [], busy_until_ns
    for arrival in arrivals:
        start = max(arrival, done)
        done = start + svc
        out.append(done)
    return out


def formula_completions(arrivals, svc, busy_until_ns):
    """The vectorised formula with every temporary spelled out — the float
    operations, in order, that the in-place kernel must reproduce."""
    k = np.arange(len(arrivals), dtype=np.float64)
    adj = arrivals - svc * k
    adj[0] = max(adj[0], busy_until_ns)
    return np.maximum.accumulate(adj) + svc * (k + 1.0)


def per_request_keep(arrivals, svc, busy_until_ns, max_backlog_ns):
    """The backlog bound with no shortcut: every request's wait, compared."""
    wait = formula_completions(arrivals, svc, busy_until_ns) - svc - arrivals
    return wait <= max_backlog_ns


# -- (a) admission by proof ------------------------------------------------------


def _proof_bound(arrivals, svc, busy_until_ns):
    """What the scalar proof compares ``max_backlog_ns - 1`` against."""
    return max(busy_until_ns - float(arrivals[0]), 0.0) + svc * len(arrivals)


@st.composite
def _batches(draw):
    n = draw(st.integers(1, 64))
    start = draw(st.floats(0.0, 1e12))
    gaps = draw(st.lists(st.floats(0.0, 5e4), min_size=n, max_size=n))
    arrivals = start + np.cumsum(np.asarray(gaps, dtype=np.float64))
    svc = draw(st.floats(1.0, 1e5))
    busy = start + draw(st.floats(-1e6, 1e6))
    bound = _proof_bound(arrivals, svc, busy)
    max_backlog = draw(st.one_of(
        st.floats(0.0, 1e7),
        st.just(float("inf")),
        # straddling the proof's own threshold by less than 2 ns
        st.floats(-2.0, 2.0).map(lambda d: max(0.0, bound + 1.0 + d)),
        # and the largest real wait, where the per-request pass flips
        st.floats(-2.0, 2.0).map(lambda d: max(0.0, float(
            (formula_completions(arrivals, svc, busy) - svc - arrivals).max()) + d)),
    ))
    return arrivals, svc, busy, max_backlog


@settings(max_examples=400, deadline=None)
@given(_batches())
@example((np.array([0.0]), 1.0, 0.0, 0.0))
@example((np.array([10.0, 10.0, 10.0]), 2.0, 50.0, 47.0))
def test_admission_proof_never_contradicts_the_per_request_pass(batch):
    arrivals, svc, busy, max_backlog = batch
    keep = TrafficEngine._backlog_keep(arrivals, svc, busy, max_backlog)
    reference = per_request_keep(arrivals, svc, busy, max_backlog)
    if keep is None:  # "nothing is shed" — by proof or by the pass
        assert reference.all()
    else:
        assert np.array_equal(keep, reference) and not reference.all()


def test_admission_proof_skips_the_queue_pass_only_where_it_holds(monkeypatch):
    arrivals = np.arange(0.0, 29_000.0, 1_000.0)  # 29 requests, 1 us apart
    calls = []
    real = TrafficEngine._completions
    monkeypatch.setattr(TrafficEngine, "_completions", staticmethod(
        lambda *args: calls.append(args) or real(*args)))
    svc, busy = 400.0, 500.0
    bound = _proof_bound(arrivals, svc, busy)  # 500 + 400*29
    assert TrafficEngine._backlog_keep(arrivals, svc, busy, bound + 1.5) is None
    assert TrafficEngine._backlog_keep(arrivals, svc, busy, float("inf")) is None
    assert not calls  # proven: the per-request pass never ran
    # one ns inside the margin the proof no longer speaks; the pass does
    assert TrafficEngine._backlog_keep(arrivals, svc, busy, bound + 0.5) is None
    assert len(calls) == 1
    keep = TrafficEngine._backlog_keep(arrivals, svc, busy, 100.0)
    assert len(calls) == 2 and keep.tolist() == [False] + [True] * 28


# -- (b) the in-place queue kernel -----------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 29, 4097, 10_000])
def test_completions_is_the_scalar_recurrence_bit_for_bit(n):
    """Quarter-ns inputs make every sum exact, so the running-max form and
    the one-request-at-a-time recurrence must agree to the last bit."""
    rng = np.random.default_rng(n)
    arrivals = np.cumsum(rng.integers(0, 4_000, size=n)).astype(np.float64) / 4.0
    kept = arrivals.copy()
    for svc, busy in ((1.0, 0.0), (250.25, 300.5), (1_000.0, float(arrivals[-1]))):
        got = TrafficEngine._completions(arrivals, svc, busy)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tolist() == scalar_completions(arrivals.tolist(), svc, busy)
        assert not np.shares_memory(got, arrivals)
        assert not np.shares_memory(got, traffic._ramp)
        assert np.array_equal(arrivals, kept)
    assert len(traffic._ramp) > n  # 10_000 outgrows the import-time ramp


@pytest.mark.parametrize("n", [1, 2, 29, 4097, 10_000])
def test_completions_rounds_like_the_plain_formula(n):
    """On arbitrary floats the recurrence and the running max round
    differently; the kernel must round exactly as the formula it replaced."""
    rng = np.random.default_rng(1_000 + n)
    arrivals = 1e9 * rng.random() + np.cumsum(rng.exponential(350.0, size=n))
    for svc in (1.0, 317.123456789, 7_919.5):
        for busy in (0.0, float(arrivals[0]) + 12_345.678, float(arrivals[-1])):
            got = TrafficEngine._completions(arrivals, svc, busy)
            assert np.array_equal(got, formula_completions(arrivals, svc, busy))


# -- (c) the slow sides replay the parent commit ---------------------------------

#: the on arm failing over to node 1; on a healthy rack its retry bucket
#: only refills and its breakers only record successes
REPLICATED = ResilienceSpec(replica_node=1)

#: (tenant, seed, engine kwargs), each pinned as its report digest, backlog
#: drops, hedges and hedge wins (ledger rows no step counts since hedging was
#: deleted; the pin predates that): at commit 0543b2c, the parent of the
#: admission proof
PARENT = {
    # tests/workloads/test_traffic.py::TestAdmission — sheds on every batch
    "admission": (
        TenantSpec(name="hot", rate_rps=20_000_000.0, node=0, max_backlog_ns=50_000.0),
        3, {"batch_window_ns": 200_000.0},
    ),
}


@pytest.mark.parametrize("scenario", sorted(PARENT))
def test_shedding_runs_replay_the_parent_commit(scenario, pin):
    tenant, seed, kwargs = PARENT[scenario]
    runs = []
    for _ in range(2):  # same seed, same everything
        rig = build_rig(n_nodes=2)
        eng = ResilientTrafficEngine(rig.kernel, [tenant], resilience=REPLICATED,
                                     seed=seed, **kwargs)
        ran = eng.run(max_requests=30_000)
        report = eng.report(ran.duration_ns, ran.events_dispatched)
        t = report.tenants[tenant.name]
        runs.append({"digest": report.digest(), "dropped_backlog": t["dropped_backlog"],
                     "hedges": t["hedges"], "hedge_wins": t["hedge_wins"]})
    assert runs[0] == runs[1]
    pin(runs[0])
