"""Every subcommand of the telemetry CLI that reads a file refuses a bad
one with one ``error:`` line and exit status 2 -- never a traceback, never
a score of nothing.

Each input builder takes ``bad``: ``None`` for a good file, ``"key"`` for a
row missing a key, ``"type"`` for a row with a wrongly typed field."""

import json

import pytest

from repro.telemetry import RUN_SCHEMA
from repro.telemetry.__main__ import main
from repro.telemetry.atlas import ATLAS_SCHEMA
from repro.telemetry.health.recorder import FLIGHT_SCHEMA, FlightRecorder


def _dump(bad=None) -> dict:
    dump = FlightRecorder().snapshot("incident:ue-storm:on", 0.0)
    row = {"index": 0, "start_ns": 0.0, "end_ns": 1e6, "windows": 1,
           "counters": [[0, "traffic/web", "resilience.lost", 5.0]]}
    if bad == "key":
        del row["end_ns"]  # scored as a quiet window: "recovered: True", exit 0
    elif bad == "type":
        row["end_ns"] = "x"
    dump["windows"].append(row)
    return dump


def _run(bad=None) -> dict:
    event = {"name": "op", "ph": "X", "pid": 0, "tid": 0, "ts": 0.0, "dur": 1.0}
    if bad == "key":
        del event["name"]
    elif bad == "type":
        event["ts"] = "x"
    return {"schema": RUN_SCHEMA, "metrics": {}, "trace": {"traceEvents": [event]}}


def _atlas(bad=None) -> dict:
    """A run export carrying a one-link, one-page, one-node atlas."""
    tenant = {"vni": 0, "tenant": "web", "bytes": 64, "saturated_bytes": 0, "share": 0.0}
    link = {"link": "gmem|node:0", "capacity_bytes_per_s": 1e9, "bytes": 64,
            "requests": 1, "rate_bytes_per_s": 0.0, "utilisation": 0.0,
            "saturated_bytes": 0, "saturated_windows": 0,
            "time_to_saturation_s": None, "downs": [], "tenants": [tenant]}
    atlas = {"schema": ATLAS_SCHEMA, "at_ns": 0.0, "queue_delay_ns": {"web": 5.0},
             "sketch": {"page_k": 64, "page_coverage": 1.0, "total_bytes": 64.0},
             "pages": [{"page": 4096, "addr": "0x1000", "bytes": 64.0, "error": 0.0}],
             "links": [link], "nodes": [{"node": 0, "port": "gmem|node:0"}]}
    if bad == "key":
        del atlas["links"][0]["bytes"]
    elif bad == "type":
        atlas["links"][0]["bytes"] = "x"  # was: bad operand type for unary -
    return {"schema": RUN_SCHEMA, "metrics": {}, "atlas": atlas}


#: (argv before the file, a good file's content, its schema tag) of every
#: subcommand that reads a file; "atlas" is the top-links view
CLIS = {
    "dashboard": (["dashboard"], _run, RUN_SCHEMA),
    "atlas": (["top-links"], _atlas, RUN_SCHEMA),
    "top-pages": (["top-pages"], _atlas, RUN_SCHEMA),
    "blame": (["blame"], _atlas, RUN_SCHEMA),
    "headroom": (["headroom"], _atlas, RUN_SCHEMA),
    "postmortem": (["postmortem"], _dump, FLIGHT_SCHEMA),
    "replay": (["replay"], _dump, FLIGHT_SCHEMA),
    "score": (["score"], _dump, FLIGHT_SCHEMA),
}


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
    return path  # "missing": never written


@pytest.mark.parametrize(
    "kind", ["missing", "truncated", "schema", "row", "not_object", "wrong_type"])
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


@pytest.mark.parametrize("view, spoil", [  # each crashed its view before
    ("top-pages", lambda a: a["pages"][0].update(bytes="many")),  # ... __round__
    ("blame", lambda a: a["links"][0].update(tenants=None)),
    ("top-pages", lambda a: a.update(pages={"0": a["pages"][0]})),
    ("headroom", lambda a: a["queue_delay_ns"].update(web=None)),
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
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict(_run(), metrics=metrics)))
    assert main(["dashboard", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "metrics" in err and err.count("\n") == 1


@pytest.mark.parametrize("traced", [True, False])
def test_dashboard_trace_out_writes_the_trace_or_refuses(traced, tmp_path, capsys):
    run = _run()
    if not traced:
        del run["trace"]
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
