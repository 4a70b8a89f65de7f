"""Shared test plumbing.

The acceptance suite registers one verdict per criterion here; the terminal
summary hook prints them as PASS/FAIL lines at the end of the run so the
result of every criterion is visible even when pytest captures stdout.  Each
line ends with the criterion's wall time: from the start of its test call to
its verdict.

Every Hypothesis test runs under one profile: reproducible examples
(``derandomize``), no example database and no per-example deadline; a test's
own ``@settings`` only sets its example count.
"""

import time

import pytest
from hypothesis import settings

settings.register_profile("bitraj", deadline=None, derandomize=True, database=None)
settings.load_profile("bitraj")

ACCEPTANCE: list[tuple[str, bool, str, float]] = []
_CALL_STARTED = [0.0]


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    _CALL_STARTED[0] = time.perf_counter()
    yield


def record_verdict(name: str, ok: bool, detail: str = "") -> None:
    ACCEPTANCE.append((name, bool(ok), detail, time.perf_counter() - _CALL_STARTED[0]))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail, seconds in ACCEPTANCE:
        tag = "PASS" if ok else "FAIL"
        line = f"[{tag}] {name}"
        if detail:
            line += f" -- {detail}"
        terminalreporter.write_line(f"{line} ({seconds:.2f} s)")
