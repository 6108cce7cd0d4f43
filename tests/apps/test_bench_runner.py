"""Tests for the python -m repro.bench experiment runner and the drift
guard the experiments emit their tables through."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest


def test_list_enumerates_experiments():
    result = subprocess.run(
        [sys.executable, "-m", "repro.bench", "--list"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    for exp_id in ("E1", "E2", "E13"):
        assert exp_id in result.stdout
    assert "Figure 4" in result.stdout


def test_unknown_id_rejected():
    result = subprocess.run(
        [sys.executable, "-m", "repro.bench", "E99"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert "unknown experiment" in result.stderr


def _emit_into():
    path = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "conftest.py"
    spec = importlib.util.spec_from_file_location("benchmarks_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.emit_into


def test_emit_passes_on_identical_text_and_regenerates_then_fails_on_drift(tmp_path):
    emit_into = _emit_into()
    table = tmp_path / "E0_demo.txt"

    with pytest.raises(pytest.fail.Exception, match="E0_demo.txt"):  # missing counts as drift
        emit_into(tmp_path, "E0_demo", "a  b\n1  2")
    assert table.read_text() == "a  b\n1  2\n"
    emit_into(tmp_path, "E0_demo", "a  b\n1  2")  # the next run passes

    table.write_text("a  b\n1  3\n")  # one digit edited by hand
    with pytest.raises(pytest.fail.Exception, match="E0_demo.txt"):
        emit_into(tmp_path, "E0_demo", "a  b\n1  2")
    assert table.read_text() == "a  b\n1  2\n"
