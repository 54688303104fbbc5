import signal

import pytest


@pytest.fixture
def no_hang():
    """Fail the test, instead of hanging, once it has run for 10 s: a FIFO
    opened without a peer blocks. The failure is not an OSError, so no
    handler of the code under test can swallow it."""

    def expire(signum, frame):
        pytest.fail("blocked for 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
