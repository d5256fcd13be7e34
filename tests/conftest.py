import ctypes
import gc
import glob
import os

import numpy as np
import pytest

# Test files that pin seeded bytes.  The Ginibre product G @ G† runs in BLAS
# (zgemm), and the pins were recorded on OpenBLAS's SkylakeX kernels; other
# kernels, such as OPENBLAS_CORETYPE=Haswell or Prescott, round it differently.
PINNED_ON_SKYLAKEX = {"test_golden.py", "test_benchmark_outputs.py", "test_states.py"}


def openblas_core() -> str | None:
    """The kernel set OpenBLAS picked in this process, if it can be asked.

    Looked up with ctypes as ``benchmarks/run.py`` looks up its thread count.
    """
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_char_p
            return fn().decode()
    return None


def pytest_configure(config):
    """Fail a test on a NumericallyMarginalWarning it does not expect.

    Set here rather than in pyproject.toml: the benchmark gate runs under the
    same ini file without ``src`` on the path, where the category would not
    import."""
    config.addinivalue_line("filterwarnings", "error::cohwit.errors.NumericallyMarginalWarning")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Name the OpenBLAS core under each failure of a test that pins bytes."""
    report = (yield).get_result()
    if report.failed and item.path.name in PINNED_ON_SKYLAKEX:
        report.sections.append(
            ("OpenBLAS core", f"pins recorded on SkylakeX kernels; this run used {openblas_core()}")
        )


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail any test after which the cyclic garbage collector is disabled, so
    no read path can leave the process without its collector."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")
