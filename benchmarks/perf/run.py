"""One perf benchmark: five workloads, two clocks, and a layer table.

Two ways in::

    python benchmarks/perf/run.py [--seed S] [--reps K] [--trace] [--agree] [--smoke]
    python benchmarks/perf/run.py --workload W --seed S --seconds T --trace 0|1

The first runs every workload, each in a fresh interpreter, one after
another, and prints every end-to-end metric by name with its unit (and,
with ``--trace``, the layer table).  The second is what ``BENCHMARK.json``
names: one workload in this process; its last stdout line is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

A run does one untimed warm-up rep, then timed reps on a fresh rig each
(``gc.collect()`` between).  Host-time headlines are best-of-reps, since
noise on a shared box only ever adds time.  Simulated metrics are taken
from the first timed rep and every rep's digest must match it.  The traced
run is separate: end-to-end metrics never come from a traced rep.
"""

from __future__ import annotations

import os

# one thread at a time: pin BLAS/OpenMP pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import pathlib
import platform
import resource
import subprocess
import sys
import time
from typing import Dict, List, NamedTuple, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np

import metrics as M
from repro.bench.harness import Table
from tracer import Tracer
from workloads import PAPER_REDUCTION_BAND, WORKLOADS, Outcome, Workload

DEFAULT_REPS = 12
#: with a time budget, still take at least this many timed reps
MIN_REPS = 7
SMOKE_REPS = 2
SMOKE_SCALE = 10


class Rep(NamedTuple):
    state: object
    outcome: Outcome
    setup_s: float
    run_s: float


def _rep(w: Workload, seed: int, scale: int) -> Rep:
    """One rep on a fresh rig."""
    gc.collect()
    t0 = time.perf_counter()
    state = w.setup(seed, scale)
    t1 = time.perf_counter()
    outcome = w.run(state)
    t2 = time.perf_counter()
    return Rep(state, outcome, t1 - t0, t2 - t1)


def _untraced_reps(w: Workload, seed: int, scale: int, reps: Optional[int],
                   seconds: float, min_reps: int) -> List[Rep]:
    """Warm up once, then rep until ``reps`` are done, or - with a time
    budget instead - until it is spent and ``min_reps`` are done."""
    _rep(w, seed, scale)
    done: List[Rep] = []
    started = time.perf_counter()
    while True:
        done.append(_rep(w, seed, scale))
        if reps is not None:
            if len(done) >= reps:
                break
        elif len(done) >= min_reps and time.perf_counter() - started >= seconds:
            break
        done[-1] = done[-1]._replace(state=None)  # drop the rig, keep the numbers
    return done


def _environment(seed: int, reps: int) -> Dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "seed": seed, "reps": reps, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "commit": commit,
    }


def run_timed(w: Workload, seed: int, scale: int, reps: Optional[int],
              seconds: float) -> dict:
    """The untraced run: every end-to-end metric of one workload."""
    done = _untraced_reps(w, seed, scale, reps, seconds, MIN_REPS)
    first = done[0].outcome
    problems = [p for rep in done for p in rep.outcome.problems]
    problems += w.verify(done[-1].state)
    replay = all(rep.outcome.digest == first.digest for rep in done)
    if not replay:
        problems.append("a rep's digest differs from the first rep's (replay not identical)")
    run_walls = [rep.run_s for rep in done]
    setup_walls = [rep.setup_s for rep in done]
    sim = first.sim
    e2e = {
        "host_req_per_s": first.offered / min(run_walls),
        "setup_s": min(setup_walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # a metric a workload does not define reads 1, so that every run reports
    # every end-to-end metric; the table prints "-" for these
    simulated = [n for n, _, _, _ in M.END_TO_END if n not in M.HOST_METRICS]
    e2e.update({name: sim.get(name, 1.0) for name in simulated})
    extras = {
        "sim_p50_ns": sim["sim_p50_ns"],
        "fail_share": sim["fail_share"],
        "replay_identical": float(replay),
    }
    return {
        "workload": w.name,
        "correct": not problems,
        "problems": problems,
        "attempted": first.offered * len(done),
        # a rep whose outputs fail a check counts all its requests as failed;
        # requests the *simulated* rack drops or loses are ok_share's business
        "failed": sum(rep.outcome.offered for rep in done if rep.outcome.problems),
        "metrics": e2e,
        "extras": extras,
        "undefined": [name for name in simulated if name not in sim],
        "digest": first.digest,
        "notes": {k: v for k, v in first.detail.items()
                  if k in ("worst_tenant", "p99_samples", "reduction_error_vs_paper")},
        "rep_walls_s": {"run": run_walls, "setup": setup_walls},
        "env": _environment(seed, len(done)),
    }


def run_traced(w: Workload, seed: int, scale: int, reps: Optional[int],
               seconds: float) -> dict:
    """The traced run: untraced reps for the baseline wall, then one rep
    under the tracer for the layer table and the Chrome trace."""
    done = _untraced_reps(w, seed, scale, reps, seconds / 2.0, min_reps=2)
    untraced_walls = [rep.setup_s + rep.run_s for rep in done]
    best = min(done, key=lambda rep: rep.setup_s + rep.run_s).outcome
    del done
    tracer = Tracer()
    with tracer:
        traced = _rep(w, seed, scale)
    outcome = traced.outcome
    problems = list(outcome.problems)
    replay = outcome.digest == best.digest
    if not replay:
        problems.append("traced and untraced reps of one seed differ in digest")
    OUT.mkdir(exist_ok=True)
    n_spans = tracer.write_chrome_trace(OUT / f"trace-{w.name}.json", w.name)
    # per-transport host rates are only honest untraced
    outcome.detail.update({k: v for k, v in best.detail.items() if k.endswith("_wall_s")})
    layer = M.layer_metrics(tracer, outcome, traced.setup_s + traced.run_s,
                            untraced_walls, n_spans, replay)
    return {
        "workload": w.name,
        "correct": not problems,
        "problems": problems,
        "attempted": outcome.offered,
        "failed": outcome.offered if problems else 0,
        "metrics": layer,
        "digest": outcome.digest,
        "calls": {name: cell[0] for name, cell in tracer.stats.items()},
        "env": _environment(seed, len(untraced_walls)),
    }


def run_one(args) -> int:
    """Contract mode: one workload, here, JSON on the last line."""
    w = WORKLOADS[args.workload]
    scale = SMOKE_SCALE if args.smoke else 1
    reps = args.reps if args.reps is not None else (SMOKE_REPS if args.smoke else None)
    if reps is None and args.seconds is None:
        reps = DEFAULT_REPS
    runner = run_traced if args.trace else run_timed
    result = runner(w, args.seed, scale, reps, args.seconds or 0.0)
    units = ({n: u for n, u, _, _ in M.END_TO_END} if not args.trace
             else {n: u for n, u, _ in M.PER_LAYER})
    OUT.mkdir(exist_ok=True)
    kind = "layers" if args.trace else "timed"
    (OUT / f"result-{w.name}-{kind}.json").write_text(json.dumps(result, indent=1) + "\n")
    for problem in result["problems"]:
        print(f"CHECK FAILED [{w.name}]: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


# -- all workloads, one after another ------------------------------------------------


def _spawn(name: str, args, trace: bool) -> dict:
    """Run one workload in a fresh interpreter; return its result file."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(args.seed), "--trace", str(int(trace))]
    if args.smoke:
        cmd.append("--smoke")
    if args.reps is not None:
        cmd += ["--reps", str(args.reps)]
    kind = "layers" if trace else "timed"
    path = OUT / f"result-{name}-{kind}.json"
    path.unlink(missing_ok=True)  # never read a previous run's result
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode not in (0, 1) or not path.exists():
        raise SystemExit(f"{name}: benchmark process exited {proc.returncode}")
    return json.loads(path.read_text())


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:,.4f}" if abs(value) < 1000 else f"{value:,.1f}"


def _print_table(title: str, rows, columns: List[str], cell) -> None:
    """rows: (name, unit); cell(name, column) -> text."""
    table = Table(title, ["metric", "unit", *columns])
    for name, unit in rows:
        table.add_row(name, unit, *(cell(name, c) for c in columns))
    table.show()


def _run_set(args, trace: bool = False) -> Dict[str, dict]:
    return {name: _spawn(name, args, trace) for name in WORKLOADS}


def _print_set(results: Dict[str, dict], title: str) -> None:
    rows = [(n, u) for n, u, _, _ in M.END_TO_END] + list(M.SIM_EXTRAS)

    def cell(name: str, workload: str) -> str:
        r = results[workload]
        if name in r["undefined"]:
            return "-"
        return _fmt(r["metrics"].get(name, r["extras"].get(name)))

    _print_table(title, rows, list(results), cell)
    for name, r in results.items():
        notes = ", ".join(f"{k}={v}" for k, v in r["notes"].items())
        print(f"{name}: digest {r['digest']}  {notes}")
    redis = results["redis-closed"]
    low, high = PAPER_REDUCTION_BAND
    print(f"redis-closed: sim_reduction_x {redis['metrics']['sim_reduction_x']:.3f} against "
          f"the paper's {low}-{high}x band: error "
          f"{redis['notes']['reduction_error_vs_paper']:+.1%}")


def _failures(results: Dict[str, dict]) -> List[str]:
    return [f"{name}: {p}" for name, r in results.items() for p in r["problems"]]


def _agree(first: Dict[str, dict], second: Dict[str, dict]) -> List[str]:
    """Compare two sets of the same code: host metrics within their bounds
    from ``BENCHMARK.json``, everything simulated (and the digests) equal."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    disagreements = []
    print("\n== agreement of two sets ==")
    for name in WORKLOADS:
        a, b = first[name], second[name]
        pairs = {**{k: (a["metrics"][k], b["metrics"][k]) for k in a["metrics"]},
                 **{k: (a["extras"][k], b["extras"][k]) for k in a["extras"]}}
        for metric, (x, y) in pairs.items():
            if metric in M.HOST_METRICS:
                bound, better = bounds[metric]
                worse = (x - y) / x if better == "higher" else (y - x) / x
                ok = abs(worse) < bound
                verdict = f"{worse:+.1%} (bound {bound:.0%})"
            else:
                ok = x == y
                verdict = "equal" if ok else "DIFFERS (must be exact)"
            print(f"{name:<20} {metric:<18} {_fmt(x):>16} {_fmt(y):>16}  "
                  f"{'ok  ' if ok else 'FAIL'} {verdict}")
            if not ok:
                disagreements.append(f"{name}/{metric}")
        if a["digest"] != b["digest"]:
            disagreements.append(f"{name}/digest")
            print(f"{name:<20} digest differs: {a['digest']} vs {b['digest']}")
    return disagreements


def run_all(args) -> int:
    first = _run_set(args)
    env = next(iter(first.values()))["env"]
    print("perf benchmark: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    _print_set(first, "end-to-end metrics" + (" (set 1)" if args.agree else ""))
    failures = _failures(first)
    if args.agree:
        second = _run_set(args)
        _print_set(second, "end-to-end metrics (set 2)")
        failures += _failures(second)
        disagreements = _agree(first, second)
        if disagreements:
            failures.append(
                "two sets disagree on " + ", ".join(disagreements)
                + " - for a host metric raise --reps, never the bound")
    if args.trace:
        layers = _run_set(args, trace=True)
        _print_table(
            "layer table (traced run; busy_s is self time, share is of the traced rep)",
            [(n, u) for n, u, _ in M.PER_LAYER], list(layers),
            lambda name, workload: _fmt(layers[workload]["metrics"][name]))
        print(f"Chrome traces: {OUT.relative_to(ROOT)}/trace-<workload>.json")
        failures += _failures(layers)
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print("\n" + ("all output checks passed" if not failures
                  else f"{len(failures)} check(s) failed"))
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(WORKLOADS),
                    help="run this one workload in-process (the BENCHMARK.json form)")
    ap.add_argument("--seed", type=int, default=0,
                    help="offsets every engine/campaign/generator seed; 0 is stock")
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed reps continue until this many seconds have passed")
    ap.add_argument("--reps", type=int, default=None,
                    help=f"exactly this many timed reps (default {DEFAULT_REPS})")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                    help="traced run: the layer table and a Chrome trace per workload")
    ap.add_argument("--agree", action="store_true",
                    help="run two full sets and compare them against the bounds")
    ap.add_argument("--smoke", action="store_true",
                    help=f"{SMOKE_REPS} reps at one tenth of the requests")
    args = ap.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
