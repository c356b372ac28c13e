import numpy as np
import pytest

from hdcca.ensembles import Seed
from hdcca.hyptest import tabulate_airy1_sums, tabulate_laguerre_max
from hdcca.cointegration import tabulate_brownian_coint

ALPHAS = (0.9, 0.95, 0.99)


@pytest.fixture(scope="session")
def airy_table_r1():
    """Edge-law table at the default internal aspect ratios."""
    return tabulate_airy1_sums(1, ALPHAS, sim_size=100, nsamples=10_000, seed=Seed(1001))


@pytest.fixture(scope="session")
def airy_table_r1_coupling():
    """Edge-law table at aspect ratios matching the K=100, T=1000
    cointegration coupling ensemble (panel widths 199 and 899)."""
    return tabulate_airy1_sums(
        1, ALPHAS, sim_size=100, nsamples=10_000, seed=Seed(1002),
        m_ratio=1.99, s_ratio=10.98,
    )


@pytest.fixture(scope="session")
def laguerre_table_23():
    return tabulate_laguerre_max(2, 3, ALPHAS, nsamples=20_000, seed=Seed(1003))


@pytest.fixture(scope="session")
def brownian_table_k2_r1():
    return tabulate_brownian_coint(2, 1, ALPHAS, n_grid=None, nsamples=10_000, seed=Seed(1004))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
