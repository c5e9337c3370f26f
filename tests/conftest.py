"""Shared test plumbing: collect acceptance lines and print them at the end.

Acceptance tests record one PASS/FAIL line each; emitting them through the
terminal-summary hook keeps them visible under pytest's output capture.
Every test starts with an empty direction-table cache.
"""

import pytest

from mboxsim import protocols

_criterion_lines = []


@pytest.fixture(autouse=True)
def _fresh_direction_tables():
    # a table built under one test's patched direction builder must not
    # serve the next test
    protocols._branch_tables.cache_clear()


@pytest.fixture
def criterion():
    def emit(number: int, name: str, ok: bool, detail: str) -> None:
        line = f"{'PASS' if ok else 'FAIL'} criterion {number:02d} [{name}] {detail}"
        _criterion_lines.append(line)
        print(line)
        assert ok, line

    return emit


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)
