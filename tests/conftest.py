"""Shared test plumbing.

The acceptance suite registers one verdict per criterion here; the terminal
summary hook prints them as PASS/FAIL lines at the end of the run so the
result of every criterion is visible even when pytest captures stdout.  Each
line ends with the criterion's wall time: from the start of its test call to
its verdict.

Every Hypothesis test runs under one profile: reproducible examples
(``derandomize``), no example database and no per-example deadline; a test's
own ``@settings`` only sets its example count.

``extra_peak`` is the one tracemalloc probe of the memory tests, and
``fresh_run`` and ``fresh_stdout`` run a fresh interpreter for the import and
``python -m bitraj.cli`` tests.
"""

import os
import subprocess
import sys
import time
import tracemalloc

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


def extra_peak(fn) -> int:
    """Bytes that ``fn()`` held at its peak on top of what was allocated before it ran."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def fresh_run(*args: str) -> subprocess.CompletedProcess:
    """``python <args>`` in a fresh interpreter on this test run's ``sys.path``, output as text."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def fresh_stdout(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on this test run's ``sys.path``."""
    out = fresh_run("-c", code)
    out.check_returncode()
    return out.stdout


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
