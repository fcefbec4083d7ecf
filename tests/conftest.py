import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)``: the peak memory ``fn`` allocates beyond what is
    live when it starts."""

    def peak(fn):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    return peak
