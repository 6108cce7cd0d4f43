"""Every subcommand of the telemetry CLI that reads a file refuses a bad
one with one ``error:`` line and exit status 2 -- never a traceback, never
a score of nothing.

Each input builder takes ``bad``: ``None`` for a good file, ``"key"`` for a
row missing a key, ``"type"`` for a row with a wrongly typed field.  A good
file holds one row of each kind its readers read."""

import contextlib
import io
import json
import pathlib
import re
import runpy
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry import RUN_SCHEMA, TELEMETRY
from repro.telemetry.__main__ import main
from repro.telemetry.atlas import ATLAS_SCHEMA
from repro.telemetry.health.recorder import FLIGHT_SCHEMA, FlightRecorder
from repro.telemetry.incidents import get_scenario, run_scenario
from repro.telemetry.schema import RUN, check


def _dump(bad=None) -> dict:
    dump = FlightRecorder().snapshot("incident:ue-storm:on", 0.0)
    row = {"index": 0, "start_ns": 0.0, "end_ns": 1e6, "windows": 1,
           "counters": [[0, "traffic/web", "resilience.lost", 5.0]], "gauges": []}
    if bad == "key":
        del row["end_ns"]  # scored as a quiet window: "recovered: True", exit 0
    elif bad == "type":
        row["end_ns"] = "x"
    dump["windows"].append(row)
    dump["alerts"].append({
        "alert_id": "a1", "objective": "ue.rate", "node": 0, "fired_window": 0,
        "fired_ns": 5e5, "fast_burn": 4.0, "slow_burn": 2.0, "state": "firing",
        "resolved_window": None, "resolved_ns": None, "event": "firing"})
    dump["breakers"].append({"tenant": "web", "target": 0, "from": "closed", "to": "open",
                             "t_ns": 6e5, "reason": "node-crash"})
    dump["spans"].append(["traffic.attempt", 0, 7e5, 8e5, None,
                          {"outcome": "failed", "target": 0}])
    dump["fault_tail"]["0"] = [{"kind": "node_crash", "time_ns": 4e5, "addr": None,
                                "detail": ""}]
    return dump


#: a run's metrics section with nothing recorded
_NO_METRICS = {"counters": [], "gauges": [], "histograms": []}


def _run(bad=None) -> dict:
    event = {"name": "op", "ph": "X", "pid": 0, "tid": 0, "ts": 0.0, "dur": 1.0}
    if bad == "key":
        del event["name"]
    elif bad == "type":
        event["ts"] = "x"
    return {"schema": RUN_SCHEMA, "meta": {}, "metrics": _NO_METRICS,
            "trace": {"traceEvents": [event]}}


def _atlas(bad=None) -> dict:
    """A run export carrying a one-link, one-page atlas."""
    link = {"link": "gmem|node:0", "bytes": 64, "requests": 1, "rate_bytes_per_s": 0.0,
            "downs": [], "tenants": [{"vni": 0, "tenant": "web", "bytes": 64}]}
    atlas = {"schema": ATLAS_SCHEMA, "at_ns": 0.0, "queue_delay_ns": {"web": 5.0},
             "sketch": {"page_k": 64, "page_coverage": 1.0, "total_bytes": 64.0},
             "pages": [{"page": 4096, "addr": "0x1000", "bytes": 64.0, "error": 0.0}],
             "links": [link]}
    if bad == "key":
        del atlas["links"][0]["bytes"]
    elif bad == "type":
        atlas["links"][0]["bytes"] = "x"  # was: bad operand type for unary -
    return {"schema": RUN_SCHEMA, "meta": {}, "metrics": _NO_METRICS, "trace": None,
            "atlas": atlas}


#: (argv before the file, a good file's content, its schema tag) of every
#: subcommand that reads a file; "atlas" is the top-links view
CLIS = {
    "dashboard": (["dashboard"], _run, RUN_SCHEMA),
    "atlas": (["top-links"], _atlas, RUN_SCHEMA),
    "top-pages": (["top-pages"], _atlas, RUN_SCHEMA),
    "postmortem": (["postmortem"], _dump, FLIGHT_SCHEMA),
    "replay": (["replay"], _dump, FLIGHT_SCHEMA),
    "score": (["score"], _dump, FLIGHT_SCHEMA),
}


#: per file kind, the tag of its layout from when fabric links had capacities
#: (a run file's is its atlas section's)
STALE_TAGS = {RUN_SCHEMA: "repro.telemetry.atlas/2", FLIGHT_SCHEMA: "repro.telemetry.flightrec/4"}


def _bad_file(tmp_path, kind, build, schema):
    path = tmp_path / "input.json"
    if kind == "truncated":
        path.write_text(json.dumps(build())[:40])
    elif kind == "schema":
        path.write_text(json.dumps(dict(build(), schema=schema + "x")))
    elif kind == "row":
        path.write_text(json.dumps(build("key")))
    elif kind == "not_object":
        path.write_text("[1, 2]")  # was: an AttributeError traceback, exit 1
    elif kind == "wrong_type":
        path.write_text(json.dumps(build("type")))
    elif kind == "stale_tag":
        data = build()
        if schema == RUN_SCHEMA:
            data["atlas"] = dict(_atlas()["atlas"], schema=STALE_TAGS[schema])
        else:
            data["schema"] = STALE_TAGS[schema]
        path.write_text(json.dumps(data))
    return path  # "missing": never written


@pytest.mark.parametrize(
    "kind", ["missing", "truncated", "schema", "row", "not_object", "wrong_type", "stale_tag"])
@pytest.mark.parametrize("cli", sorted(CLIS))
def test_bad_input_is_one_error_line_and_exit_2(cli, kind, tmp_path, capsys):
    argv, build, schema = CLIS[cli]
    good = tmp_path / "good.json"
    good.write_text(json.dumps(build()))
    assert main(argv + [str(good)]) == 0
    capsys.readouterr()

    assert main(argv + [str(_bad_file(tmp_path, kind, build, schema))]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1 and out == ""
    assert kind != "stale_tag" or repr(STALE_TAGS[schema]) in err


@pytest.mark.parametrize("view, spoil", [  # each crashed its view before
    ("top-pages", lambda a: a["pages"][0].update(bytes="many")),  # ... __round__
    ("top-pages", lambda a: a.update(pages={"0": a["pages"][0]})),
])
def test_atlas_view_refuses_a_wrongly_typed_field(view, spoil, tmp_path, capsys):
    run = _atlas()
    spoil(run["atlas"])
    (tmp_path / "run.json").write_text(json.dumps(run))
    assert main([view, str(tmp_path / "run.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and " must be " in err and err.count("\n") == 1


#: one well-formed exported histogram: two samples of 3 ns
_HIST = {"count": 2, "sum": 6.0, "min": 3.0, "max": 3.0, "buckets": {"2": 2}}


@pytest.mark.parametrize("metrics", [
    [],                                                  # was: an AttributeError traceback
    {"counters": [[0, "core.fs", 5.0]]},                 # was: "not enough values to unpack"
    {"gauges": {"0": 1.0}},
    {"counters": [[0, "core.fs", "hits", "many"]]},
    {"histograms": [[0, "core.ipc", "ipc.zero_copy_send_ns", 5.0]]},
    {"counters": [[0, "rack.machine", "cache.hit", float("inf")]]},  # was: OverflowError in _fmt
    {"histograms": [[0, "core.ipc", "ipc.zero_copy_send_ns", _HIST | {"buckets": {"99": 2}}]]},  # IndexError
    {"counters": [[0, 5, "cache.hit", 3]]},              # was: AttributeError
    {"counters": [[0, "rack.machine", "cache.hit", float("nan")]]},  # was: shown as "-"
    {"counters": [[0, "rack.machine", "cache.hit", True]]},         # was: shown as 1
    {"gauges": [["x", "reliability", "scrub.evacuated", 1.0]]},     # was: shown as "nodex"
    {"gauges": [[True, "reliability", "scrub.evacuated", 1.0]]},
    {"counters": [[0, "rack.machine", "", 1.0]]},
    {"histograms": [[0, "core.ipc", "ipc.zero_copy_send_ns", _HIST | {"count": -1}]]},
    {"histograms": [[0, "core.ipc", "ipc.zero_copy_send_ns", _HIST | {"sum": float("inf")}]]},
    {"histograms": [[0, "core.ipc", "ipc.zero_copy_send_ns", _HIST | {"max": "big"}]]},
    {"histograms": [[0, "core.ipc", "ipc.zero_copy_send_ns", _HIST | {"buckets": {"3": 1.5}}]]},
])
def test_dashboard_refuses_a_malformed_metrics_section(metrics, tmp_path, capsys):
    if isinstance(metrics, dict):  # each row is refused for its own fault
        metrics = dict(_NO_METRICS, **metrics)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict(_run(), metrics=metrics)))
    assert main(["dashboard", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "metrics" in err and err.count("\n") == 1


#: a field :func:`_spoil` deletes
_DROP = object()
_NAN, _INF = float("nan"), float("inf")


def _spoil(doc: dict, path: str, value) -> None:
    """Set the field at ``path`` (``a.b[0][1]``) of ``doc`` to ``value``."""
    *parents, last = [int(k[1:-1]) if k[0] == "[" else k
                      for k in re.findall(r"\[\d+\]|[^.\[\]]+", path)]
    for key in parents:
        doc = doc[key]
    if value is _DROP:
        del doc[last]
    else:
        doc[last] = value


@pytest.mark.parametrize("cli, path, value", [  # each was read without a refusal before
    ("score", "windows[0].counters[0][3]", _INF),            # scored, exit 0
    ("replay", "windows[0].counters[0][3]", _NAN),
    ("postmortem", "windows[0].counters[0][3]", True),
    ("score", "windows[0].counters[0][1]", 5),
    ("replay", "windows[0].counters[0][0]", "x"),
    ("score", "windows[0].index", 0.7),
    ("postmortem", "windows[0].windows", -3),
    ("score", "windows[0].end_ns", _NAN),
    ("score", "windows[0].end_ns", _DROP),                   # "window row 0 is malformed"
    ("postmortem", "spans[0][1]", "x"),
    ("postmortem", "fault_tail", []),                        # AttributeError
    ("score", "fault_tail.0", "x"),                          # TypeError
    ("postmortem", "alerts[0]", 1),                          # AttributeError
    ("replay", "breakers[0].target", None),                  # TypeError
    ("score", "reason", 5),                                  # AttributeError
    ("replay", "reason", 5),
    ("dashboard", "meta", [1]),                              # AttributeError
    ("dashboard", "trace.traceEvents[0].ts", _NAN),
    ("dashboard", "trace.traceEvents[0].pid", True),
    ("atlas", "atlas.links[0].bytes", _INF),                 # OverflowError
    ("atlas", "atlas.links[0].tenants[0].vni", True),
    ("top-pages", "atlas.sketch.page_coverage", _NAN),
], ids=lambda v: "drop" if v is _DROP else v if isinstance(v, str) else json.dumps(v))
def test_refused_by_its_path(cli, path, value, tmp_path, capsys):
    """A field outside its spec is one ``error:`` line that names its path."""
    argv, build, _schema = CLIS[cli]
    doc = build()
    _spoil(doc, path, value)
    (tmp_path / "in.json").write_text(json.dumps(doc))
    assert main(argv + [str(tmp_path / "in.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: {tmp_path / 'in.json'}: {path} "), err


@pytest.mark.parametrize("traced", [True, False])
def test_dashboard_trace_out_writes_the_trace_or_refuses(traced, tmp_path, capsys):
    run = _run()
    if not traced:
        run["trace"] = None  # what an untraced run exports
    path, out = tmp_path / "run.json", tmp_path / "trace.json"
    path.write_text(json.dumps(run))
    assert main(["dashboard", str(path), "--trace-out", str(out)]) == (0 if traced else 2)
    if traced:
        assert json.loads(out.read_text()) == run["trace"]
    else:
        assert not out.exists()
        stdout, err = capsys.readouterr()
        assert stdout == ""  # was: the whole dashboard, then the error
        assert err.startswith("error: run has no trace") and err.count("\n") == 1


@pytest.mark.parametrize("cli, argv", [
    ("score", ["--target", "0"]),     # was scored against 0.999
    ("score", ["--target", "nan"]),   # was "MTTM 0.000 ms" beside "recovered: False"
    ("score", ["--target", "-1"]),    # was "recovered: True" with requests lost
    ("score", ["--target", "inf"]),
    ("atlas", ["-n", "-1"]),          # was the busiest links but the last
    ("atlas", ["-n", "0"]),
])
def test_hostile_argument_is_one_argparse_error(cli, argv, tmp_path, capsys):
    command, build, _schema = CLIS[cli]
    path = tmp_path / "good.json"
    path.write_text(json.dumps(build()))
    with pytest.raises(SystemExit) as exit_:
        main(command + [str(path)] + argv)
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("error:") == 1
    assert f"error: argument {argv[0]}: must be" in err


def test_unknown_scenario_is_one_argparse_error(capsys):
    with pytest.raises(SystemExit) as exit_:  # was: a KeyError traceback, exit 1
        main(["run", "no-such-scenario"])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("error:") == 1
    assert "error: argument scenario: invalid choice: 'no-such-scenario'" in err


@pytest.mark.parametrize("argv", [
    ["run", "ue-storm", "--dump"],       # was: the whole scenario, then FileNotFoundError
    ["run", "ue-storm", "--trace-out"],
    ["run", "all", "--json"],
    ["score", "{good}", "--json"],       # was: a FileNotFoundError traceback, exit 1
    ["dashboard", "{run}", "--trace-out"],  # was: the whole dashboard, then FileNotFoundError
])
def test_output_in_a_missing_directory_is_refused_before_any_work(argv, tmp_path, capsys):
    dashboard = argv[0] == "dashboard"
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_run() if dashboard else _dump()))
    out_path = tmp_path / "nonexistent" / "out.json"
    argv = [str(good) if a in ("{good}", "{run}") else a for a in argv] + [str(out_path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {out_path}: no directory {out_path.parent}\n"


# -- the property: one mutation anywhere in a live file --------------------------

#: the most rows a list of a live file keeps: evenly spaced, so each row shape
#: stays and one example costs a few milliseconds
_ROWS = 6
#: the file commands over each live file
_COMMANDS = {"dump": ("postmortem", "replay", "score"),
             "run": ("dashboard", "top-links", "top-pages")}
_MUTATIONS = ("drop", "type", "nan", "inf", "-inf", "bool", "negative", "truncate")


def _thin(doc):
    """``doc`` with each list of rows cut to at most :data:`_ROWS` of them."""
    if isinstance(doc, dict):
        return {k: _thin(v) for k, v in doc.items()}
    if isinstance(doc, list) and all(isinstance(v, (dict, list)) for v in doc):
        return [_thin(v) for v in doc[::len(doc) // _ROWS + 1]]
    return doc


def _paths(doc, path=()):
    """The path of every value below the top of ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _replaced(doc, path, value):
    """``doc`` with the value at ``path`` replaced (``_DROP``: removed); the
    containers on the path are copied, the rest shared."""
    key, rest = path[0], path[1:]
    out = list(doc) if isinstance(doc, list) else dict(doc)
    if rest:
        out[key] = _replaced(doc[key], rest, value)
    elif value is _DROP:
        del out[key]
    else:
        out[key] = value
    return out


def _json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    """{"dump" | "run": (thinned file content, its paths)}: a ``run ue-storm``
    dump and an ``examples/redis_rack.py --telemetry`` run export, built live."""
    out = tmp_path_factory.mktemp("live")
    dump = run_scenario(get_scenario("ue-storm"), detection=True).dump
    example = pathlib.Path(__file__).parents[2] / "examples" / "redis_rack.py"
    argv, atlas = sys.argv, TELEMETRY.atlas
    sys.argv = [str(example), "--telemetry", str(out / "run.json")]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(example), run_name="__main__")
    finally:
        sys.argv, TELEMETRY.atlas = argv, atlas
    files = {"dump": json.loads(json.dumps(dump)), "run": json.loads((out / "run.json").read_text())}
    check(files["run"], RUN)
    files = {kind: _thin(doc) for kind, doc in files.items()}
    for kind, doc in files.items():  # unmutated, every command reads the thinned file
        (out / "in.json").write_text(json.dumps(doc))
        for command in _COMMANDS[kind]:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([command, str(out / "in.json")]) == 0
    return out, {kind: (doc, list(_paths(doc))) for kind, doc in files.items()}


def test_one_mutation_anywhere_in_a_live_file_is_read_or_refused(live):
    """Every file command either reads a live dump or run export with one
    mutation at a random path, or refuses it with one ``error:`` line."""
    out, files = live
    targets = [(kind, command, path) for kind, (_doc, paths) in sorted(files.items())
               for command in _COMMANDS[kind] for path in paths]

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(targets), st.sampled_from(_MUTATIONS), st.integers(0, 1 << 16))
    def read(target, mutation, pick):
        kind, command, path = target
        doc = files[kind][0]
        if mutation == "truncate":
            text = json.dumps(doc)
            text = text[:pick % len(text)]
        else:
            old = doc
            for key in path:
                old = old[key]
            others = [v for v in (None, "x", 1, [], {}) if _json_type(v) != _json_type(old)]
            value = {"drop": _DROP, "type": others[pick % len(others)], "nan": _NAN,
                     "inf": _INF, "-inf": -_INF, "bool": pick % 2 == 1, "negative": -1}[mutation]
            text = json.dumps(_replaced(doc, path, value))
        (out / "in.json").write_text(text)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = main([command, str(out / "in.json")])  # a traceback fails the example
        err = stderr.getvalue()
        assert (status, err) == (0, "") or (
            status == 2 and err.startswith("error: ") and err.count("\n") == 1), (status, err)

    read()
