import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import binom, ks_2samp

from hdcca import cointegration
from hdcca.cca_core import DataPanel, sample_spectrum
from hdcca.cointegration import (
    TimeSeriesPanel,
    VarModel,
    _large_k_constants,
    coint_lambda_pm,
    coint_test_large,
    coint_test_small,
    detrended_law,
    johansen_lambdas,
    make_pi_rank_r,
    modified_lambdas,
    simulate_brownian_null,
    simulate_var1,
    tabulate_brownian_coint,
    trace_statistic,
)
from hdcca.ensembles import Seed
from hdcca.errors import (
    DimensionMismatch,
    InvalidParams,
    InvalidRegime,
    TableMismatch,
    TooFewObservations,
    UnitCorrelation,
)
from hdcca.hyptest import STATISTIC_BROWNIAN_COINT
from hdcca.wachter import Spectrum, support, support_endpoints
from oracles import euler_brownian_null, jacobi_coupling_check, modified_panels, simulate_var1_loop


class TestTimeSeriesPanel:
    @pytest.mark.parametrize(
        "X", [np.zeros((0, 5)), np.zeros(5), np.zeros((2, 2)), np.array([[0.0, 1.0, np.nan]])],
        ids=["zero-rows", "one-d", "short-horizon", "non-finite"],
    )
    def test_bad_series_rejected(self, X):
        with pytest.raises(DimensionMismatch):
            TimeSeriesPanel(X)

    def test_series_is_a_read_only_copy(self):
        X = np.arange(6.0).reshape(2, 3)
        ts = TimeSeriesPanel(X)
        X[0, 0] = 9.0
        assert ts.X[0, 0] == 0.0 and not ts.X.flags.writeable


class TestVarModel:
    @pytest.mark.parametrize("name", ["pi", "lam", "x0"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_is_refused(self, name, bad):
        args = {"pi": np.zeros((2, 2)), "lam": np.eye(2), "x0": np.zeros(2)}
        args[name] = args[name].copy()
        args[name].flat[0] = bad
        with pytest.raises(InvalidParams, match="must all be finite"):
            VarModel(**args)

    @pytest.mark.parametrize("last", [0.0, -1e-12], ids=["singular", "negative"])
    def test_covariance_that_is_not_positive_definite_is_refused(self, last):
        with pytest.raises(InvalidParams, match="positive-definite"):
            VarModel(np.zeros((2, 2)), np.diag([1.0, last]), np.zeros(2))

    def test_tiny_positive_variance_is_accepted(self):
        model = VarModel(np.zeros((2, 2)), np.diag([1.0, 1e-300]), np.zeros(2))
        assert model._chol[1, 1] == math.sqrt(1e-300)


class TestSimulateVar1:
    def test_random_walk_variance_grows_linearly(self):
        K, T, reps = 2, 200, 400
        model = VarModel.pure_random_walk(K)
        finals = np.empty((reps, K))
        for i in range(reps):
            finals[i] = simulate_var1(model, T, Seed(40, i)).X[:, -1]
        se = T * math.sqrt(2.0 / reps)
        assert finals.var(axis=0) == pytest.approx(T, abs=4 * se)

    def test_full_negative_feedback_gives_iid_noise(self):
        K, T = 2, 4000
        model = VarModel(pi=-np.eye(K), lam=np.eye(K), x0=np.zeros(K))
        X = simulate_var1(model, T, Seed(41)).X
        x = X[0, 1:]
        autocorr = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(autocorr) < 4.0 / math.sqrt(T)

    def test_scalar_autoregression_autocorrelation_decays_exponentially(self):
        theta = 0.6
        T = 200_000
        model = VarModel(pi=np.array([[theta - 1.0]]), lam=np.eye(1), x0=np.zeros(1))
        x = simulate_var1(model, T, Seed(42)).X[0, T // 10 :]
        for s in (1, 2, 3, 4):
            sample = np.corrcoef(x[:-s], x[s:])[0, 1]
            assert sample == pytest.approx(theta**s, abs=0.02)

    def test_deterministic_given_seed(self):
        model = VarModel.pure_random_walk(3)
        a = simulate_var1(model, 50, Seed(43)).X
        b = simulate_var1(model, 50, Seed(43)).X
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "model, T, seed, digest",
        [
            (VarModel.pure_random_walk(100), 1000, Seed(2026),
             "f0781a567407405df4147fafe4560bf2f38d960cb9b6ee37f92653c8ccfea63a"),
            (VarModel(np.zeros((2, 2)), np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([10.0, -3.0])), 500, Seed(7),
             "57d66c1f0143fdde714333aa4cbe881092c73da38f76042138cd117c107cb49a"),
        ],
        ids=["k100", "k2-lam-x0"],
    )
    def test_random_walk_bits_are_pinned(self, model, T, seed, digest):
        # sha256 of the series as the per-step implementation's random-walk branch wrote it, on one build
        X = simulate_var1(model, T, seed).X
        assert hashlib.sha256(X.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("x0", [0.0, 10.0], ids=["x0-0", "x0-10"])
    @pytest.mark.parametrize(
        "K, kind",
        [(K, kind) for K in (1, 2, 3, 100) for kind in ("corner", "minus-identity", "rank-1", "rank-k", "nilpotent")
         if K > 1 or kind != "nilpotent"],  # [[0, 1], [0, 0]] in the top-left corner needs K >= 2
    )
    def test_agrees_with_the_per_step_loop(self, K, kind, x0):
        pi = np.zeros((K, K))
        if kind == "corner":
            pi[0, 0] = -1.0
        elif kind == "minus-identity":
            pi = -np.eye(K)
        elif kind == "nilpotent":
            pi[0, 1] = 1.0
        else:
            pi = make_pi_rank_r(K, 1 if kind == "rank-1" else K, -0.7, Seed(K))
        model = VarModel(pi, np.eye(K), np.full(K, x0))
        want = simulate_var1_loop(model, 300, Seed(44, K))
        got = simulate_var1(model, 300, Seed(44, K)).X
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_explosive_series_that_overflows_is_refused(self):
        model = VarModel(np.array([[5.0]]), np.eye(1), np.zeros(1))
        with pytest.raises(InvalidParams, match=r"overflowed: I \+ pi is explosive over T = 2000 steps"):
            simulate_var1(model, 2000, Seed(45))


class TestMakePiRankR:
    def test_rank_zero_is_the_zero_matrix(self):
        np.testing.assert_array_equal(make_pi_rank_r(4, 0, -0.5, Seed(0)), np.zeros((4, 4)))

    @given(K=st.integers(2, 6), r=st.integers(1, 6), seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_numeric_rank_matches(self, K, r, seed):
        if r > K:
            return
        pi = make_pi_rank_r(K, r, -0.7, Seed(seed))
        sv = np.linalg.svd(pi, compute_uv=False)
        assert int(np.sum(sv > 1e-8)) == r

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf])
    def test_non_finite_scale_is_refused(self, scale):
        with pytest.raises(InvalidParams, match="scale must be finite"):
            make_pi_rank_r(3, 1, scale, Seed(0))

    def test_full_rank_with_given_scale(self):
        pi = make_pi_rank_r(3, 3, -0.5, Seed(1))
        sv = np.linalg.svd(pi, compute_uv=False)
        np.testing.assert_allclose(sv, 0.5, atol=1e-10)


class TestJohansenLambdas:
    def test_exact_error_correction_relation_gives_unit_correlation(self):
        T = 300
        rng = np.random.default_rng(44)
        x1 = np.arange(T + 1, dtype=float)  # deterministic trend coordinate
        x2 = np.empty(T + 1)
        x2[0] = 1.0
        for t in range(1, T + 1):  # nearly exact relation: dx2 = -0.5 x2 + tiny
            x2[t] = 0.5 * x2[t - 1] + 1e-8 * rng.standard_normal()
        spec = johansen_lambdas(TimeSeriesPanel(np.vstack([x1, x2])))
        assert spec.values[0] > 0.999

    def test_variable_order_irrelevant(self):
        X = simulate_var1(VarModel.pure_random_walk(3), 200, Seed(45))
        a = johansen_lambdas(X).values
        b = johansen_lambdas(TimeSeriesPanel(X.X[::-1])).values
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_horizon_floor(self):
        X = simulate_var1(VarModel.pure_random_walk(5), 9, Seed(46))
        with pytest.raises(TooFewObservations, match="K \\+ M = 10 > S = 9"):
            johansen_lambdas(X)


class TestTraceStatistic:
    def test_zero_rank_and_zero_spectrum(self):
        spec = Spectrum(np.array([0.4, 0.2]))
        assert trace_statistic(spec, 0, 100) == 0.0
        flat = Spectrum(np.array([0.0, 0.0]))
        assert trace_statistic(flat, 2, 100) == 0.0

    def test_reference_value(self):
        spec = Spectrum(np.array([0.5]))
        assert trace_statistic(spec, 1, 100) == pytest.approx(50.0 * math.log(0.5), rel=1e-12)

    def test_unit_correlation_rejected(self):
        spec = Spectrum(np.array([1.0, 0.2]))
        with pytest.raises(UnitCorrelation):
            trace_statistic(spec, 1, 100)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_nonincreasing_in_rank(self, seed):
        vals = np.sort(np.random.default_rng(seed).uniform(0.0, 0.9, size=4))[::-1]
        spec = Spectrum(vals)
        stats = [trace_statistic(spec, r, 50) for r in range(5)]
        assert all(b <= a + 1e-12 for a, b in zip(stats, stats[1:]))


class TestBrownianNull:
    def test_scalar_diagonal_identity(self):
        # C[0,0] must equal (B(1)^2 - sum of squared increments) / 2 exactly
        rng = np.random.default_rng(47)
        n = 1000
        dB = rng.standard_normal(n) / math.sqrt(n)
        B = np.cumsum(dB)
        Blag = np.concatenate([[0.0], B[:-1]])
        C = float(dB @ Blag)
        assert C == pytest.approx((B[-1] ** 2 - np.sum(dB**2)) / 2.0, abs=1e-14)
        # and the increment normalization makes sum dB^2 -> 1
        assert np.sum(dB**2) == pytest.approx(1.0, abs=5.0 * math.sqrt(2.0 / n))

    def test_terminal_value_has_unit_variance(self):
        # the Ito identity C + C^T = xi xi^T - I puts xi_i^2 = B_i(1)^2 on the diagonal as 2 C_ii + 1
        C, _ = cointegration._brownian_integrals(Seed(48).generator(), 20_000, 2)
        xi2 = 2.0 * np.diagonal(C, axis1=1, axis2=2).ravel() + 1.0
        assert np.all(xi2 >= 0.0)
        assert np.mean(xi2) == pytest.approx(1.0, abs=5.0 * math.sqrt(2.0 / len(xi2)))

    def test_block_moments_match_the_brownian_integrals(self):
        # E[V] = I/2 with the tail mean included, E[C] = 0, and E[D_ij^2] = 1 for D = C - C^T:
        # D_ij = int B_j dB_i - int B_i dB_j has variance E int (B_i^2 + B_j^2) = 1, area tail included
        C, V = cointegration._brownian_integrals(Seed(49).generator(), 20_000, 3)
        for sample, mean in ((V, 0.5 * np.eye(3)), (C, np.zeros((3, 3)))):
            se = sample.std(axis=0) / math.sqrt(len(sample))
            assert np.all(np.abs(sample.mean(axis=0) - mean) < 5.0 * se)
        D2 = (C - np.swapaxes(C, 1, 2))[:, [0, 0, 1], [1, 2, 2]] ** 2
        assert np.all(np.abs(D2.mean(axis=0) - 1.0) < 5.0 * D2.std(axis=0) / math.sqrt(len(D2)))

    @pytest.mark.parametrize("K", [1, 2, 5])
    def test_law_matches_the_euler_oracle(self, K):
        # every partial sum of the top r eigenvalues, r = 1..K, against 4000 Euler draws on 2000 steps;
        # on 1000 steps the oracle's own bias at K = 5 reads a KS of 0.010 against 10^5 series draws
        series = np.cumsum(simulate_brownian_null(K, 20_000, Seed(59, K)), axis=1)
        euler = np.cumsum(euler_brownian_null(K, 2000, 4000, Seed(58, K)), axis=1)
        pvalues = [ks_2samp(series[:, r], euler[:, r]).pvalue for r in range(K)]
        assert min(pvalues) > 0.01

    @pytest.mark.parametrize("K", [2, 5])
    def test_quantiles_stable_under_doubling_the_modes(self, monkeypatch, K):
        # q95 of the top eigenvalue at twice the modes lies within the two 10^4-draw tables' 95%
        # order-statistic half-widths (binomial 2.5% and 97.5% points) of q95 at the default
        n, q, half = 10_000, {}, {}
        lo, hi = int(binom.ppf(0.025, n, 0.95)) - 1, int(binom.ppf(0.975, n, 0.95)) - 1
        for modes in (cointegration._MODES, 2 * cointegration._MODES):
            monkeypatch.setattr(cointegration, "_MODES", modes)
            draws = tabulate_brownian_coint(K, 1, (), None, n, Seed(50, K)).draws
            q[modes], half[modes] = np.quantile(draws, 0.95), (draws[hi] - draws[lo]) / 2.0
        (q_m, q_2m), (h_m, h_2m) = q.values(), half.values()
        assert abs(q_m - q_2m) < h_m + h_2m

    def test_descending_rows(self):
        nu = simulate_brownian_null(3, 50, Seed(51))
        assert nu.shape == (50, 3)
        assert np.all(np.diff(nu, axis=1) <= 1e-12)
        assert np.all(nu[:, -1] >= -1e-12)

    def test_bench_positional_call_ignores_the_grid_slot(self):
        # the benchmark's mc_study set-up passes 1000 in the unused n_grid slot by position
        table = tabulate_brownian_coint(2, 1, (0.9, 0.95, 0.99), 1000, 2000, Seed(52))
        assert (table.statistic_id, table.params) == (STATISTIC_BROWNIAN_COINT, {"K": 2, "r": 1})
        assert table.draws == tabulate_brownian_coint(2, 1, (0.9, 0.95, 0.99), 300, 2000, Seed(52)).draws


class TestCointSmall:
    def test_null_size_close_to_nominal(self, brownian_table_k2_r1):
        reps, hits = 600, 0
        model = VarModel.pure_random_walk(2)
        for i in range(reps):
            X = simulate_var1(model, 1000, Seed(52, i))
            hits += coint_test_small(X, 1, 0.95, brownian_table_k2_r1).rejected
        assert hits / reps == pytest.approx(0.05, abs=0.025)

    def test_power_against_rank_one_alternative(self, brownian_table_k2_r1):
        reps, hits = 100, 0
        for i in range(reps):
            pi = make_pi_rank_r(2, 1, -0.5, Seed(53, i))
            model = VarModel(pi=pi, lam=np.eye(2), x0=np.zeros(2))
            X = simulate_var1(model, 1000, Seed(54, i))
            hits += coint_test_small(X, 1, 0.95, brownian_table_k2_r1).rejected
        assert hits / reps > 0.9

    def test_zero_rank_never_rejects(self, brownian_table_k2_r1):
        X = simulate_var1(VarModel.pure_random_walk(2), 300, Seed(55))
        table = tabulate_brownian_coint(2, 1, (0.95,), None, 2000, Seed(56))
        # rank 0: statistic is identically 0 and the threshold is negative
        report = coint_test_small(X, 0, 0.95, _retarget_rank(table, 0))
        assert report.statistic_value == 0.0
        assert not report.rejected

    def test_table_mismatch(self, brownian_table_k2_r1):
        X = simulate_var1(VarModel.pure_random_walk(3), 300, Seed(57))
        with pytest.raises(TableMismatch):
            coint_test_small(X, 1, 0.95, brownian_table_k2_r1)


def _retarget_rank(table, r):
    from hdcca.hyptest import QuantileTable

    params = dict(table.params)
    params["r"] = r
    return QuantileTable(
        statistic_id=table.statistic_id,
        params=params,
        draws=table.draws,
        seed=table.seed,
    )


class TestModifiedLambdas:
    def test_noise_drift_is_removed_exactly(self):
        K, T = 3, 400
        model = VarModel.pure_random_walk(K)
        base = simulate_var1(model, T, Seed(58))
        drift = np.array([0.7, -0.2, 1.3])
        shifted = base.X + np.outer(drift, np.arange(T + 1))
        a = modified_lambdas(base).values
        b = modified_lambdas(TimeSeriesPanel(shifted)).values
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_initial_condition_shift_is_removed(self):
        X = simulate_var1(VarModel.pure_random_walk(2), 300, Seed(59))
        shifted = TimeSeriesPanel(X.X + np.array([[5.0], [-3.0]]))
        np.testing.assert_allclose(
            modified_lambdas(X).values, modified_lambdas(shifted).values, atol=1e-10
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bits_match_the_diff_and_outer_spelling(self, seed):
        model = VarModel(make_pi_rank_r(6, 2, -0.5, Seed(seed)), np.eye(6), np.full(6, 3.0))
        X = simulate_var1(model, 60, Seed(46, seed))
        U, V = modified_panels(X.X)
        want = sample_spectrum(DataPanel(U), DataPanel(V))
        assert modified_lambdas(X).values.tobytes() == want.tobytes()

    def test_horizon_floor(self):
        X = simulate_var1(VarModel.pure_random_walk(5), 10, Seed(60))
        with pytest.raises(TooFewObservations):
            modified_lambdas(X)


class TestStackedStatistics:
    """The private stacked path keeps each series' bits: the public calls are its one-series calls."""

    @pytest.mark.parametrize("K, T, n", [(2, 1000, 8), (5, 50, 8), (20, 100, 8), (100, 1000, 2)])
    def test_stack_matches_the_one_series_calls_bit_for_bit(self, K, T, n):
        model = VarModel(make_pi_rank_r(K, 1, -0.5, Seed(K)), np.eye(K), np.full(K, 3.0))
        series = [simulate_var1(model, T, Seed(T, i)) for i in range(n)]
        stack = np.stack([X.X for X in series])
        for detrended, one in ((False, johansen_lambdas), (True, modified_lambdas)):
            spectra = cointegration._coint_spectra(stack, detrended)
            specs = [one(X) for X in series]
            assert spectra.tobytes() == np.stack([s.values for s in specs]).tobytes(), detrended
            for r in (0, 1, K):
                sums = cointegration._log_gap_sums(spectra, r)
                # T = 2 makes trace_statistic's factor T / 2 exactly 1, so it returns the log-gap sum itself
                assert sums.tobytes() == np.array([trace_statistic(s, r, 2) for s in specs]).tobytes(), (detrended, r)
                assert (T / 2.0 * sums).tolist() == [trace_statistic(s, r, T) for s in specs], (detrended, r)

    def test_one_unit_correlation_row_refuses_the_stack(self):
        stack = np.stack([simulate_var1(VarModel.pure_random_walk(2), 50, Seed(70, i)).X for i in range(3)])
        stack[1, 0] = 0.5 ** np.arange(51.0)  # increments exactly -1/2 the lagged level
        spectra = cointegration._coint_spectra(stack, False)
        with pytest.raises(UnitCorrelation, match="is numerically 1"):
            cointegration._log_gap_sums(spectra, 1)
        cointegration._log_gap_sums(spectra[[0, 2]], 1)  # the other rows alone pass


class TestCointLambdaPm:
    def test_frozen_reference_values(self):
        lo, hi = coint_lambda_pm(10.0)
        assert lo == pytest.approx(0.017911, abs=5e-7)
        assert hi == pytest.approx(0.46143, abs=5e-6)

    def test_upper_edge_approaches_one_near_the_boundary(self):
        _, hi = coint_lambda_pm(2.0 + 1e-9)
        assert hi == pytest.approx(1.0, abs=1e-6)

    @given(tau=st.floats(2.01, 80.0))
    @settings(max_examples=50, deadline=None)
    def test_identity_with_the_limit_law_support(self, tau):
        got = coint_lambda_pm(tau)
        want = support_endpoints(1.0 + tau, (1.0 + tau) / 2.0)
        assert got[0] == pytest.approx(want[0], abs=1e-12)
        assert got[1] == pytest.approx(want[1], abs=1e-12)

    def test_ratio_floor(self):
        with pytest.raises(InvalidParams):
            coint_lambda_pm(2.0)

    @pytest.mark.parametrize("tau", [2.2, 10.0, 80.0])
    def test_detrended_law_has_the_closed_form_support(self, tau):
        assert support(detrended_law(tau)) == pytest.approx(coint_lambda_pm(tau), abs=1e-12)


class TestCointLarge:
    def test_cointegrated_corner_model_rejects(self, airy_table_r1_coupling):
        pi = np.zeros((100, 100))
        pi[0, 0] = -1.0
        model = VarModel(pi=pi, lam=np.eye(100), x0=np.zeros(100))
        for i in range(5):
            X = simulate_var1(model, 1000, Seed(61, i))
            report = coint_test_large(X, 1, 0.95, airy_table_r1_coupling)
            assert report.rejected
            assert report.diagnostics["c2"] < 0.0

    @given(tau=st.floats(2.05, 60.0))
    @settings(max_examples=40, deadline=None)
    def test_edge_scale_constant_is_negative(self, tau):
        K = 100
        _, _, _, c2 = _large_k_constants(K, int(round(tau * K)))
        assert c2 < 0.0

    @pytest.mark.parametrize("K", [10, 100, 400])
    @pytest.mark.parametrize("tau", [2.2, 2.5, 3.0, 5.0, 10.0, 20.0, 50.0, 80.0])
    def test_c2_matches_the_hand_derived_closed_form(self, K, tau):
        # hand-derived c2 for the (1 + tau, (1 + tau) / 2) Wachter law
        T = int(round(tau * K))
        t = T / K
        lo, hi = coint_lambda_pm(t)
        closed = (
            -(2.0 ** (2.0 / 3.0))
            * hi ** (2.0 / 3.0)
            / ((1.0 - hi) ** (1.0 / 3.0) * (hi - lo) ** (1.0 / 3.0))
            * (t + 1.0) ** (-2.0 / 3.0)
        )
        assert _large_k_constants(K, T) == pytest.approx((lo, hi, math.log1p(-hi), closed), rel=1e-13)

    def test_regime_floor(self, airy_table_r1_coupling):
        X = simulate_var1(VarModel.pure_random_walk(50), 100, Seed(62))
        with pytest.raises(InvalidRegime):
            coint_test_large(X, 1, 0.95, airy_table_r1_coupling)

    def test_rank_mismatch_with_table(self, airy_table_r1_coupling):
        X = simulate_var1(VarModel.pure_random_walk(20), 300, Seed(63))
        with pytest.raises(TableMismatch):
            coint_test_large(X, 2, 0.95, airy_table_r1_coupling)

    def test_rank_above_k_is_a_dimension_mismatch(self, airy_table_r1):
        # the small-regime rule: r = 5 on a 3-variable series must not sum the 3 values it has
        X = simulate_var1(VarModel.pure_random_walk(3), 100, Seed(1))
        with pytest.raises(DimensionMismatch, match="0 <= r <= 3, got 5"):
            coint_test_large(X, 5, 0.95, _retarget_rank(airy_table_r1, 5))
        with pytest.raises(DimensionMismatch):
            trace_statistic(johansen_lambdas(X), 5, X.T)


class TestDistributionFreeness:
    def test_null_law_independent_of_noise_covariance(self):
        K, T, reps = 2, 300, 400
        rng = np.random.default_rng(64)
        A = rng.standard_normal((K, K))
        lam = A @ A.T + 0.3 * np.eye(K)
        tops_id = np.empty(reps)
        tops_gen = np.empty(reps)
        for i in range(reps):
            Xi = simulate_var1(VarModel.pure_random_walk(K), T, Seed(65, i))
            tops_id[i] = johansen_lambdas(Xi).values[0]
            Xg = simulate_var1(VarModel(np.zeros((K, K)), lam, np.zeros(K)), T, Seed(66, i))
            tops_gen[i] = johansen_lambdas(Xg).values[0]
        assert ks_2samp(tops_id, tops_gen).pvalue > 0.01


class TestCouplingSmoke:
    def test_report_fields_and_edge_location(self):
        rep = jacobi_coupling_check(50, 500, 60, Seed(67))
        assert 0.0 <= rep.ks_distance <= 1.0
        assert 0.0 <= rep.centered_ks_distance <= 1.0
        _, hi, _, c2 = _large_k_constants(50, 500)
        assert rep.edge_unit == pytest.approx(50 ** (-2.0 / 3.0) * abs(c2) * (1.0 - hi))
        floor = rep.lambda_plus * (1.0 - 5.0 * 50 ** (-2.0 / 3.0))
        assert rep.mean_lambda1 > floor
        assert rep.mean_x1 > floor
