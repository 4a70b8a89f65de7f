"""Shared test plumbing.

The acceptance suite registers one verdict per criterion here; the terminal
summary hook prints them as PASS/FAIL lines at the end of the run so the
result of every criterion is visible even when pytest captures stdout.

Every Hypothesis test runs under one profile: reproducible examples
(``derandomize``), no example database and no per-example deadline; a test's
own ``@settings`` only sets its example count.
"""

from hypothesis import settings

settings.register_profile("bitraj", deadline=None, derandomize=True, database=None)
settings.load_profile("bitraj")

ACCEPTANCE: list[tuple[str, bool, str]] = []


def record_verdict(name: str, ok: bool, detail: str = "") -> None:
    ACCEPTANCE.append((name, bool(ok), detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in ACCEPTANCE:
        tag = "PASS" if ok else "FAIL"
        line = f"[{tag}] {name}"
        if detail:
            line += f" -- {detail}"
        terminalreporter.write_line(line)
