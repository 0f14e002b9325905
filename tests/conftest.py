"""Test-session setup shared by every test module."""

import os
import tracemalloc

# one BLAS thread unless the environment already names a count, set before
# numpy loads: the fits make many small BLAS calls, which lose when
# threaded (on two CPUs a K=8 fit runs about 3x slower with default threads)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

# property tests draw the same examples on every run, and a slow example
# on a loaded machine is not a failure
settings.register_profile("spatdeform", derandomize=True, deadline=None)
settings.load_profile("spatdeform")


@pytest.fixture
def traced_peak():
    """``traced_peak(f, *args)`` calls f and returns (its result, the peak
    bytes traced by ``tracemalloc`` during the call).  numpy registers its
    arrays there, so every memory guard measures alike."""

    def run(f, *args, **kwargs):
        tracemalloc.start()
        try:
            result = f(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak

    return run
