"""Per-test watchdog: a test that runs past WATCHDOG_S dumps every
thread's stack and ends the run with exit status 1, so a hang fails in
minutes with its traceback instead of at the job's timeout.  Stdlib
only."""

import faulthandler
import os
from contextlib import nullcontext

import pytest

WATCHDOG_S = 120


@pytest.fixture(scope="session")
def _stderr(request):
    # the terminal's stderr, copied with output capture off: a dump into
    # a captured stream is lost when the watchdog ends the process
    capman = request.config.pluginmanager.getplugin("capturemanager")
    with capman.global_and_fixture_disabled() if capman else nullcontext():
        fd = os.dup(2)
    with open(fd, "w") as stream:
        yield stream


@pytest.fixture(autouse=True)
def _watchdog(_stderr):
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True, file=_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()
