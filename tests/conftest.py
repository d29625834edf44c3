import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fails a test that leaves a child process running: training and grids
    must reap every process they fork, whether they return or raise."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    if left:
        pytest.fail(f"child processes left running: {[c.name for c in left]}")
