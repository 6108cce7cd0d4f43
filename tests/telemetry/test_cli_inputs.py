"""Every telemetry CLI refuses a bad input file with one ``error:`` line
and exit status 2 -- never a traceback, never a score of nothing."""

import json

import pytest

from repro.telemetry import RUN_SCHEMA
from repro.telemetry.__main__ import main as dashboard_main
from repro.telemetry.atlas import ATLAS_SCHEMA
from repro.telemetry.atlas.__main__ import main as atlas_main
from repro.telemetry.health.__main__ import main as health_main
from repro.telemetry.health.recorder import FLIGHT_SCHEMA, FlightRecorder
from repro.telemetry.incidents.__main__ import main as incidents_main


def _dump(row_missing_key: bool) -> dict:
    dump = FlightRecorder().snapshot("incident:ue-storm:on", 0.0)
    row = {"index": 0, "start_ns": 0.0, "end_ns": 1e6, "windows": 1,
           "counters": [[0, "traffic/web", "resilience.lost", 5.0]]}
    if row_missing_key:
        del row["end_ns"]  # scored as a quiet window: "recovered: True", exit 0
    dump["windows"].append(row)
    return dump


def _run(row_missing_key: bool) -> dict:
    event = {"name": "op", "ph": "X", "pid": 0, "tid": 0, "ts": 0.0, "dur": 1.0}
    if row_missing_key:
        del event["name"]
    return {"schema": RUN_SCHEMA, "metrics": {}, "trace": {"traceEvents": [event]}}


def _atlas(row_missing_key: bool) -> dict:
    row = {"link": "gmem|node:0", "bytes": 64.0, "rate_bytes_per_s": 0.0,
           "capacity_bytes_per_s": 1e9, "utilisation": 0.0, "saturated_windows": 0}
    if row_missing_key:
        del row["bytes"]
    return {"schema": ATLAS_SCHEMA, "links": {"links": [row]}}


#: (main, argv before the file, a good file's content, its schema tag)
CLIS = {
    "dashboard": (dashboard_main, [], _run, RUN_SCHEMA),
    "atlas": (atlas_main, ["top-links"], _atlas, ATLAS_SCHEMA),
    "postmortem": (health_main, ["postmortem"], _dump, FLIGHT_SCHEMA),
    "score": (incidents_main, ["score"], _dump, FLIGHT_SCHEMA),
}


def _bad_file(tmp_path, kind, build, schema):
    path = tmp_path / "input.json"
    if kind == "truncated":
        path.write_text(json.dumps(build(False))[:40])
    elif kind == "schema":
        path.write_text(json.dumps(dict(build(False), schema=schema + "x")))
    elif kind == "row":
        path.write_text(json.dumps(build(True)))
    return path  # "missing": never written


@pytest.mark.parametrize("kind", ["missing", "truncated", "schema", "row"])
@pytest.mark.parametrize("cli", sorted(CLIS))
def test_bad_input_is_one_error_line_and_exit_2(cli, kind, tmp_path, capsys):
    main, argv, build, schema = CLIS[cli]
    good = tmp_path / "good.json"
    good.write_text(json.dumps(build(False)))
    assert main(argv + [str(good)]) == 0
    capsys.readouterr()

    assert main(argv + [str(_bad_file(tmp_path, kind, build, schema))]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1 and out == ""


@pytest.mark.parametrize("traced", [True, False])
def test_dashboard_trace_out_writes_the_trace_or_refuses(traced, tmp_path, capsys):
    run = _run(False)
    if not traced:
        del run["trace"]
    path, out = tmp_path / "run.json", tmp_path / "trace.json"
    path.write_text(json.dumps(run))
    assert dashboard_main([str(path), "--trace-out", str(out)]) == (0 if traced else 2)
    if traced:
        assert json.loads(out.read_text()) == run["trace"]
    else:
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: run has no trace")


@pytest.mark.parametrize("cli, argv", [
    ("score", ["--target", "0"]),     # was scored against 0.999
    ("score", ["--target", "nan"]),   # was "MTTM 0.000 ms" beside "recovered: False"
    ("score", ["--target", "-1"]),    # was "recovered: True" with requests lost
    ("score", ["--target", "inf"]),
    ("atlas", ["-n", "-1"]),          # was the busiest links but the last
    ("atlas", ["-n", "0"]),
])
def test_hostile_argument_is_one_argparse_error(cli, argv, tmp_path, capsys):
    main, command, build, _schema = CLIS[cli]
    path = tmp_path / "good.json"
    path.write_text(json.dumps(build(False)))
    with pytest.raises(SystemExit) as exit_:
        main(command + [str(path)] + argv)
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("error:") == 1
    assert f"error: argument {argv[0]}: must be" in err
