"""Shared infrastructure for the paper-figure experiments (E1..E14).

Every bench renders its table(s) with the harness and *emits* them:
printed to stdout (visible with ``pytest -s``) and regenerated under
``benchmarks/results/``.  The checked-in files are derived output, not
hand-kept pins: an emit whose text differs from the bytes on disk (a
missing file counts) rewrites the file and fails the test naming it, so
a failing run leaves the new table to review and commit, and the next
run passes.  ``tests/pins.json`` and the atlas views' golden file follow the
same rule through :func:`regenerate`.
"""

import functools
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def regenerate(path: pathlib.Path, fresh: bytes, what: str) -> None:
    """The drift rule: pass when ``path`` holds exactly ``fresh``; otherwise (a
    missing file counts) write ``fresh`` there and fail the test naming ``what``."""
    if path.exists() and path.read_bytes() == fresh:
        return
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(fresh)
    pytest.fail(
        f"{what} did not match what the code prints and was regenerated: "
        "review the diff and commit it",
        pytrace=False,
    )


def emit_into(results_dir: pathlib.Path, name: str, text: str) -> None:
    print("\n" + text)
    path = results_dir / f"{name}.txt"
    regenerate(path, (text + "\n").encode("utf-8"), str(path))


@pytest.fixture(scope="session")
def emit():
    return functools.partial(emit_into, RESULTS_DIR)
