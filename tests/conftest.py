import contextlib
import io
import os
import sys
from types import SimpleNamespace

import pytest

from test_cli_golden import collect, collect_commands


@pytest.fixture(scope="session")
def golden_runs():
    """Both golden collections of `test_cli_golden`, run once per session
    under `sys.setprofile`: `lines` and `commands` hold what `collect`
    and `collect_commands` return, `lines_stderr` what the line-path
    commands wrote there, and `entered` the (file, first line) of every
    code object that either collection entered.  The stdout tests and
    the reachability check read the same run, whichever comes first."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    err = io.StringIO()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stderr(err):
            lines = collect()
        # The other commands' error lines (exit 1 and 2) are expected.
        with contextlib.redirect_stderr(io.StringIO()):
            commands = collect_commands()
    finally:
        sys.setprofile(previous)
    return SimpleNamespace(
        lines=lines,
        commands=commands,
        lines_stderr=err.getvalue(),
        entered={(os.path.realpath(c.co_filename), c.co_firstlineno) for c in entered},
    )


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    parts = name.split("_")
    if len(parts) < 3 or parts[1] != "criterion":
        return
    label = " ".join(parts[3:])
    outcome = "PASS" if report.passed else "FAIL"
    sys.stdout.write(
        "\nacceptance criterion %s (%s): %s\n" % (parts[2], label, outcome)
    )
