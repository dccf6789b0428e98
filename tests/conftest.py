"""A wall-clock limit per test, so a computation that never ends fails its
own test instead of hanging the suite.

The limit is a real-time interval timer whose SIGALRM handler raises
TimeLimitExceeded in the running test; the previous handler is restored
afterwards.  Where SIGALRM does not exist (Windows) tests run without a
limit.
"""

import signal

import pytest

LIMIT_S = 120  # the slowest test takes a few seconds


class TimeLimitExceeded(BaseException):
    """A test ran longer than LIMIT_S.

    Not an Exception, and not pytest's Failed: hypothesis catches both as a
    failing example and replays it to shrink it, and a replay that hangs
    would hang the suite after all.  pytest reports it as the test failing.
    """


@pytest.fixture(autouse=True)
def _time_limit(request):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{request.node.nodeid} ran longer than {LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
