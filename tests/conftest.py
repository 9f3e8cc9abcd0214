import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fails a test that leaves a Python thread it started still running."""
    before = set(threading.enumerate())
    yield
    alive = [t.name for t in threading.enumerate() if t not in before]
    if alive:
        pytest.fail(f"threads still running after the test: {alive}")
