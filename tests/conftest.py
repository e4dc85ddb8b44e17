"""Suite-wide guards for the tier-1 tests."""

import faulthandler

import pytest

#: Seconds one test may run before the process prints every thread's
#: stack and exits.  A settle or scheduler loop that never converges
#: would otherwise wedge the whole run; this needs only the standard
#: library, unlike the ``timeout`` option in ``pyproject.toml``, which
#: only takes effect when pytest-timeout is installed.
HANG_TIMEOUT_S = 120


@pytest.fixture(autouse=True)
def _hang_watchdog():
    faulthandler.dump_traceback_later(HANG_TIMEOUT_S, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()
