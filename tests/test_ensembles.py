import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import ks_2samp

import oracles
from hdcca import ensembles
from hdcca.cca_core import DataPanel, sample_cca
from hdcca.cointegration import simulate_brownian_null
from hdcca.ensembles import Seed, laguerre_spectra, manova_spectra
from hdcca.errors import DimensionMismatch, InvalidParams, ParameterRange
from hdcca.wachter import WachterParams, pdf, support
from oracles import (
    DS_TEST_FUNCTIONS,
    JacobiParams,
    OutOfSimplex,
    block_generator,
    dense_manova_spectra,
    ds_residual,
    jacobi_eigenvalue_logdensity,
)


def sample_gaussian_panel(K: int, S: int, seed: Seed) -> DataPanel:
    """K x S panel of independent standard normal entries."""
    return DataPanel(seed.generator().standard_normal((K, S)))


class TestSeed:
    def test_identical_seed_reproduces(self):
        a = sample_gaussian_panel(3, 7, Seed(42, 5)).values
        b = sample_gaussian_panel(3, 7, Seed(42, 5)).values
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_are_uncorrelated(self):
        n = 200_000
        a = Seed(42, 0).generator().standard_normal(n)
        b = Seed(42, 1).generator().standard_normal(n)
        assert abs(np.corrcoef(a, b)[0, 1]) < 4.0 / math.sqrt(n)

    def test_block_generators_differ(self):
        s = Seed(7)
        a = block_generator(s, 0).standard_normal(4)
        b = block_generator(s, 1).standard_normal(4)
        assert not np.allclose(a, b)

    def test_value_range_validated(self):
        with pytest.raises(ValueError):
            Seed(-1)


class TestGaussianPanel:
    def test_moments_at_one_million_entries(self):
        panel = sample_gaussian_panel(1000, 1000, Seed(3))
        flat = panel.values.ravel()
        assert abs(flat.mean()) < 4.0 / math.sqrt(flat.size)
        assert flat.var() == pytest.approx(1.0, rel=0.01)


class TestWishart:
    def test_scalar_case_is_squared_normal(self):
        draws = laguerre_spectra(1, 1, 100_000, Seed(4))[:, 0]
        se = math.sqrt(2.0 / len(draws))  # chi-squared(1) variance is 2
        assert draws.mean() == pytest.approx(1.0, abs=3 * se)

    def test_trace_mean_is_k_times_l(self):
        K, L, n = 3, 6, 4000
        traces = laguerre_spectra(K, L, n, Seed(5)).sum(axis=1)
        se = math.sqrt(2.0 * K * L / n)
        assert traces.mean() == pytest.approx(K * L, abs=3 * se)

    def test_positive_semidefinite(self):
        w = laguerre_spectra(4, 9, 1, Seed(6))[0]
        assert np.min(w) >= -1e-10

    def test_width_below_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            laguerre_spectra(3, 2, 1, Seed(0))


@pytest.mark.parametrize("K", [-1, 0])
@pytest.mark.parametrize(
    "sample",
    [lambda K: laguerre_spectra(K, 3, 5, Seed(1)), lambda K: simulate_brownian_null(K, 5, Seed(1))],
    ids=["laguerre", "brownian"],
)
def test_block_loop_needs_a_positive_dimension(sample, K):
    # the one block loop behind the samplers checks K, so none returns an empty (5, 0) array
    with pytest.raises(DimensionMismatch, match=f"need K >= 1, got K={K}"):
        sample(K)


class TestManova:
    def test_spectrum_inside_unit_interval(self):
        for i in range(5):
            w = manova_spectra(4, 6, 9, 1, Seed(i))[0]
            assert np.all(w > 0.0) and np.all(w < 1.0)

    def test_scalar_case_matches_beta_law(self):
        L, Q = 6, 10
        draws = manova_spectra(1, L, Q, 10_000, Seed(8))[:, 0]
        direct = np.random.default_rng(9).beta(L / 2.0, Q / 2.0, size=10_000)
        stat = ks_2samp(draws, direct).statistic
        assert stat < 0.02

    def test_mean_eigenvalue_matches_limit_density(self):
        # dimensions (100, 150, 350) correspond to panel sizes (100, 150, 500)
        draws = manova_spectra(100, 150, 350, 200, Seed(10))
        params = WachterParams(5.0, 10.0 / 3.0)
        lo, hi = support(params)
        target, _ = quad(lambda x: x * pdf(x, params), lo, hi, limit=200)
        assert draws.mean() == pytest.approx(target, abs=0.01)

    @pytest.mark.parametrize("K, L, Q", [(1, 6, 10), (3, 3, 20), (5, 12, 5), (10, 15, 35)])
    def test_law_matches_the_dense_sampler(self, K, L, Q):
        # K = 1, L = K, Q = K and Q < L; every order statistic against the Gaussian definition
        n = 4000
        fast = manova_spectra(K, L, Q, n, Seed(81))
        dense = dense_manova_spectra(K, L, Q, n, Seed(82))
        pvalues = [ks_2samp(fast[:, j], dense[:, j]).pvalue for j in range(K)]
        assert min(pvalues) > 0.01

    def test_dimension_violations(self):
        with pytest.raises(DimensionMismatch):
            manova_spectra(5, 4, 9, 1, Seed(0))
        with pytest.raises(DimensionMismatch):
            manova_spectra(5, 9, 4, 1, Seed(0))


class TestManovaTop:
    """The top-r path reads the dense path's Beta variates, so the two agree draw for draw."""

    @pytest.mark.parametrize(
        "K, L, Q, n",
        [
            (2, 3, 7, 4100),  # one block of 4096 draws and a second block
            (33, 50, 120, 3700),  # a batch is one 3673-draw block: crosses both
            (60, 90, 210, 3400),  # three 1111-draw blocks a batch: crosses a batch mid-run
            (100, 150, 350, 401),  # 400-draw blocks, ten a batch
            (100, 150, 350, 1000),
            (400, 600, 1400, 60),  # 25-draw blocks
        ],
    )
    def test_matches_the_dense_solve_at_the_same_seed(self, K, L, Q, n):
        dense = manova_spectra(K, L, Q, n, Seed(83))
        fast = {top: manova_spectra(K, L, Q, n, Seed(83), top=top) for top in {1, min(10, K - 1)}}
        for top, values in fast.items():
            assert values.shape == (n, top)
            np.testing.assert_allclose(values, dense[:, -top:], rtol=0.0, atol=1e-13)
        # a target's bisection reads only its own Sturm counts, so fewer targets change no bit
        np.testing.assert_array_equal(fast[1], fast[min(10, K - 1)][:, -1:])

    def test_top_equal_to_k_is_the_dense_path(self):
        dense = manova_spectra(10, 15, 35, 50, Seed(84))
        np.testing.assert_array_equal(manova_spectra(10, 15, 35, 50, Seed(84), top=10), dense)

    @pytest.mark.parametrize("top", [0, -1, 6])
    def test_top_outside_one_to_k_rejected(self, top):
        with pytest.raises(InvalidParams):
            manova_spectra(5, 9, 9, 1, Seed(0), top=top)

    @pytest.mark.parametrize(
        "diag, off, top, expected",
        [
            # q_1 = 0.5 - 0.5 = 0 at the first midpoint; b^2 = 0.01 sends q_2 to -inf.  A 2 x 2
            # with top 2 would take the dense path, so 0.1 rides along, decoupled.
            ([0.5, 0.5], [0.1], 1, [0.6]),
            ([0.5, 0.5, 0.1], [0.1, 0.0], 2, [0.4, 0.6]),
            # b^2 = 0: without the floor, 0/0 = nan
            ([0.5, 0.5], [0.0], 1, [0.5]),
            ([0.5, 0.5, 0.1], [0.0, 0.0], 2, [0.5, 0.5]),
            # the nan would hide the negative pivots of 0.1 and 0.2, and 0.2 would read 0.5
            ([0.5, 0.5, 0.1, 0.2], [0.0, 0.0, 0.0], 3, [0.2, 0.5, 0.5]),
        ],
        ids=["zero-pivot-2x2", "zero-pivot", "zero-off-diagonal-2x2", "zero-off-diagonal",
             "zero-off-diagonal-hides-pivots"],
    )
    def test_bisection_through_a_zero_pivot(self, diag, off, top, expected):
        with np.errstate(all="raise"):  # only the guarded division by a zero pivot may happen
            got = ensembles._tridiagonal_top(np.array([diag]), np.array([off]), top)
        np.testing.assert_allclose(got, [expected], rtol=0.0, atol=1e-13)


class TestJacobiLogDensity:
    def test_uniform_case(self):
        params = JacobiParams(1, 1.0, 1.0)
        for x in (0.1, 0.5, 0.93):
            assert jacobi_eigenvalue_logdensity(np.array([x]), params) == pytest.approx(0.0, abs=1e-12)

    def test_beta_spot_value(self):
        val = jacobi_eigenvalue_logdensity(np.array([0.3]), JacobiParams(1, 2.0, 3.0))
        assert val == pytest.approx(math.log(12.0 * 0.3 * 0.49), abs=1e-12)

    @given(
        seed=st.integers(0, 2**32 - 1),
        N=st.integers(1, 5),
        p=st.floats(0.5, 6.0),
        q=st.floats(0.5, 6.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_reflection_symmetry(self, seed, N, p, q):
        x = np.sort(np.random.default_rng(seed).uniform(0.01, 0.99, size=N))[::-1]
        if N > 1 and np.min(-np.diff(x)) < 1e-9:
            return
        a = jacobi_eigenvalue_logdensity(x, JacobiParams(N, p, q))
        b = jacobi_eigenvalue_logdensity(np.sort(1.0 - x)[::-1], JacobiParams(N, q, p))
        assert a == pytest.approx(b, rel=1e-10, abs=1e-10)

    def test_out_of_simplex(self):
        params = JacobiParams(2, 2.0, 2.0)
        with pytest.raises(OutOfSimplex):
            jacobi_eigenvalue_logdensity(np.array([0.2, 0.8]), params)  # not descending
        with pytest.raises(OutOfSimplex):
            jacobi_eigenvalue_logdensity(np.array([0.5, 0.5]), params)  # tied
        with pytest.raises(OutOfSimplex):
            jacobi_eigenvalue_logdensity(np.array([1.2, 0.5]), params)


class TestLaguerreLimit:
    def test_scalar_case_is_chi_squared(self):
        M, n = 6, 20_000
        draws = np.array([0.0])
        draws = laguerre_spectra(1, M, n, Seed(11))[:, 0]
        se = math.sqrt(2.0 * M / n)
        assert draws.mean() == pytest.approx(M, abs=3 * se)

    def test_sorted_positive(self):
        y = laguerre_spectra(3, 5, 1, Seed(12))[0, ::-1]
        assert np.all(y > 0.0)
        assert np.all(np.diff(y) <= 0.0)

    def test_scaled_top_correlation_converges_to_top_coordinate(self):
        K, M, S, reps = 2, 3, 500, 5000
        seed = Seed(13)
        tops = np.empty(reps)
        for i in range(reps):
            rng = block_generator(seed, i)
            U = DataPanel(rng.standard_normal((K, S)))
            V = DataPanel(rng.standard_normal((M, S)))
            tops[i] = S * sample_cca(U, V).correlations_sq[0]
        limit = laguerre_spectra(K, M, reps, Seed(13, 1))[:, -1]
        assert ks_2samp(tops, limit).statistic < 0.03


class TestDsResidual:
    def test_constant_function_balances_first_moments(self):
        est, stderr = ds_residual(JacobiParams(5, 3.0, 4.0), 40_000, Seed(14))["const"]
        assert abs(est) < 4 * stderr

    def test_linear_function_at_reference_parameters(self):
        est, stderr = ds_residual(JacobiParams(10, 5.0, 5.0), 100_000, Seed(15))["x"]
        assert abs(est) < 4 * stderr

    def test_rhs_term_halves_when_size_doubles(self):
        func, dfunc = DS_TEST_FUNCTIONS["x2"]
        rhs = {}
        for K in (10, 20):
            x = manova_spectra(K, 2 * 5 + K - 1, 2 * 5 + K - 1, 20_000, Seed(16))
            rhs[K] = np.mean(np.sum(dfunc(x), axis=1) / (2.0 * K**2))
        assert rhs[10] / rhs[20] == pytest.approx(2.0, rel=0.25)

    def test_non_integer_widths_balance(self):
        # (2p+N-1, 2q+N-1) = (7.6, 9): no Gaussian panel has these widths
        est, stderr = ds_residual(JacobiParams(4, 2.3, 3.0), 20_000, Seed(0))["x"]
        assert abs(est) < 4 * stderr

    def test_parameter_range_enforced(self):
        with pytest.raises(ParameterRange):
            ds_residual(JacobiParams(4, 1.0, 3.0), 100, Seed(0))

    def test_one_draw_serves_every_test_function(self, monkeypatch):
        draws = []

        def counting(*args, **kwargs):
            draws.append(args)
            return manova_spectra(*args, **kwargs)

        monkeypatch.setattr(oracles, "manova_spectra", counting)
        params = JacobiParams(4, 2.0, 3.0)
        first = ds_residual(params, 500, Seed(3))
        assert list(first) == list(DS_TEST_FUNCTIONS)
        assert len(draws) == 1
        assert ds_residual(params, 500, Seed(3)) == first
        assert len(draws) == 2  # the second call drew again: no memo


class TestDistributionalInvariance:
    def test_row_transforms_leave_correlation_law_unchanged(self):
        # same null law with and without random invertible row mixing
        K, M, S, reps = 2, 3, 40, 400
        plain = np.empty(reps)
        mixed = np.empty(reps)
        seed = Seed(17)
        for i in range(reps):
            rng = block_generator(seed, i)
            U = rng.standard_normal((K, S))
            V = rng.standard_normal((M, S))
            plain[i] = sample_cca(DataPanel(U), DataPanel(V)).correlations_sq[0]
            F = rng.standard_normal((K, K)) + 2 * np.eye(K)
            G = rng.standard_normal((M, M)) + 2 * np.eye(M)
            U2 = rng.standard_normal((K, S))
            V2 = rng.standard_normal((M, S))
            mixed[i] = sample_cca(DataPanel(F @ U2), DataPanel(G @ V2)).correlations_sq[0]
        assert ks_2samp(plain, mixed).pvalue > 0.01
