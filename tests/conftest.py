import gc

import pytest


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail any test after which the cyclic garbage collector is disabled, so
    no read path can leave the process without its collector."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")
