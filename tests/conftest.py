import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def pytest_configure(config):
    """Put src/ on PYTHONPATH for child interpreters (the CLI gate runs
    `python -m beta_arena.cli`); the ini option `pythonpath` only reaches
    this process's sys.path."""
    parts = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if SRC not in map(os.path.abspath, parts):
        os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *parts])


def pytest_terminal_summary(terminalreporter):
    """Replay the acceptance-gate lines after the run.

    The gate prints one line per check; default capture swallows writes made
    while a test is running, so the module stashes them and we re-emit the
    batch here where output is never captured.
    """
    mod = (sys.modules.get("test_acceptance")
           or sys.modules.get("tests.test_acceptance"))
    lines = getattr(mod, "GATE_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance gate")
        for line in lines:
            terminalreporter.write_line(line)
