import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import strategies as st

import rstensor as rt
from rstensor import formats
from rstensor.formats import _openblas

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "fixtures")


@pytest.fixture(scope="session")
def born_mol():
    return rt.parse_pqr(os.path.join(FIXTURES, "born.pqr"))


@pytest.fixture(scope="session")
def ligand_mol():
    return rt.parse_pqr(os.path.join(FIXTURES, "ligand18.pqr"))


@pytest.fixture
def set_blas_threads():
    # the setter of numpy's OpenBLAS thread count; the count it had is
    # put back after the test
    if _openblas() is None:
        pytest.skip("numpy's BLAS has no OpenBLAS thread-count setter")
    get, put = _openblas()[:2]
    was = get()
    yield put
    put(was)


def rand_canonical(rng, n, r):
    return rt.CanonicalTensor3(rng.standard_normal(r),
                               tuple(rng.standard_normal((n, r))
                                     for _ in range(3)))


# float64 values, with signed zeros and subnormals drawn on purpose
EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     -1.5e-310]))


def same_bits(a, b):
    """Bitwise equality of two float64 arrays (tells -0.0 from 0.0)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


@contextmanager
def slab_workers(W):
    """Every threaded step cuts its range into W shares, whatever the BLAS
    thread count is."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "_slab_workers", lambda: W)
        yield
