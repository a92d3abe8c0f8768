"""Shared pytest wiring for the acceptance suite.

Acceptance tests record one verdict line each through the ``criterion``
fixture; the terminal-summary hook prints every recorded line in a dedicated
section at the end of the run, so each criterion's pass/fail status is visible
regardless of output capture settings.

pytest imports the package from this checkout's ``src`` (``pythonpath`` in
pyproject.toml); the processes the tests start (``python -m augqual.cli``,
the console script) are given the same directory on ``PYTHONPATH``, so the
suite runs from a fresh checkout without setting it.
"""

import os
from pathlib import Path

import pytest

os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (
    str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH"))))

_CRITERION_LINES: dict[int, str] = {}


@pytest.fixture
def criterion():
    """Callable(number, passed, detail): record one criterion verdict line."""

    def record(number: int, passed: bool, detail: str) -> None:
        verdict = "PASS" if passed else "FAIL"
        _CRITERION_LINES[number] = f"criterion {number:2d} {verdict}  {detail}"

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERION_LINES):
        terminalreporter.write_line(_CRITERION_LINES[number])
