import pytest
from mpmath import iv, mp

from hilbertpoincare.field import make_field


@pytest.fixture(autouse=True)
def _restore_mpmath_precision():
    # mpmath keeps precision as process-wide state; a test that raises it
    # must not decide the precision of the tests that run after it
    saved = mp.prec, iv.prec
    yield
    mp.prec, iv.prec = saved


@pytest.fixture(scope="session")
def F5():
    return make_field(5)


@pytest.fixture(scope="session")
def F2():
    return make_field(2)


@pytest.fixture(scope="session")
def F3():
    return make_field(3)
