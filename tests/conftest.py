import pytest

from carleman_lab.fields import make_fn
from carleman_lab.weights import WeightFamily, WeightParams


# parameters of the smooth test function u of the identity tests
W_SMOOTH = dict(amp=1.3, att=-0.4, bt=0.2, ax1=-0.3, bx1=0.1)


@pytest.fixture(scope="session")
def rho_trig():
    return make_fn("trig_product", 1, amp=0.1, wt=1.1, wx1=0.9, pt=0.2, px1=0.4)


@pytest.fixture(scope="session")
def varrho_quad():
    return make_fn("quadratic", 1, c0=0.5, ct=0.3, qtt=0.2, cx1=-0.1, qx1=0.4)


@pytest.fixture(scope="session")
def w_smooth():
    return make_fn("exp_quadratic", 1, **W_SMOOTH)


@pytest.fixture(scope="session")
def family(rho_trig, varrho_quad):
    return WeightFamily(rho_trig, varrho_quad)


@pytest.fixture(scope="session")
def params():
    return WeightParams(lam=3.0, gamma=1.7, mu=0.35, t0=0.1, x0=(0.2,))


def draw_uniform(seed, count, lo=0.0, hi=1.0):
    from carleman_lab.fields import uniform_stream

    return lo + (hi - lo) * uniform_stream(seed, count)
