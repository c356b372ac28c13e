import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.stats import chi2, kstest

from hdcca import hyptest
from hdcca.cca_core import DataPanel
from hdcca.cointegration import VarModel, coint_test_large, coint_test_small, simulate_var1
from hdcca.ensembles import Seed, manova_spectra
from hdcca.errors import DimensionMismatch, InvalidParams, InvalidRegime, TableMismatch, TooFewObservations
from hdcca.hyptest import (
    STATISTIC_AIRY1_SUM,
    STATISTIC_BROWNIAN_COINT,
    STATISTIC_LAGUERRE_MAX,
    QuantileTable,
    independence_test_large,
    independence_test_small,
    tabulate_airy1_sums,
    tabulate_laguerre_max,
)
from hdcca.spike import simulate_spiked_panels
from hdcca.wachter import WachterParams, edge_scale, upper_edge_constant


class TestQuantileTable:
    def test_round_trip_is_bit_exact(self, laguerre_table_23):
        clone = QuantileTable.loads(laguerre_table_23.dumps())
        assert clone == laguerre_table_23
        assert clone.dumps() == laguerre_table_23.dumps()

    def test_save_and_load(self, tmp_path, laguerre_table_23):
        path = tmp_path / "table.json"
        laguerre_table_23.save(path)
        assert QuantileTable.load(path) == laguerre_table_23

    def test_failed_save_leaves_no_temporary_file(self, tmp_path, monkeypatch, laguerre_table_23):
        def refuse(src, dst):
            raise PermissionError(f"cannot replace {dst}")

        monkeypatch.setattr(hyptest.os, "replace", refuse)
        with pytest.raises(PermissionError):
            laguerre_table_23.save(tmp_path / "table.json")
        assert list(tmp_path.iterdir()) == []

    def test_timestamp_can_be_omitted(self, laguerre_table_23):
        assert laguerre_table_23.built_at is not None
        assert "built_at" not in dataclasses.replace(laguerre_table_23, built_at=None).dumps()

    @pytest.mark.parametrize("n", [1, 2, 3, 2000, 10_000])
    def test_threshold_is_numpy_quantile_bit_for_bit(self, n):
        draws = np.random.default_rng(n).standard_normal(n)
        table = QuantileTable("X", {}, np.sort(draws).tolist(), Seed(0))
        levels = [1e-9, 1e-3, 0.05, 0.5, 0.9, 0.95, 0.975, 0.99, 1 - 1e-12, *np.linspace(0.001, 0.999, 120)]
        for alpha in levels:
            assert table.threshold_for(alpha) == np.quantile(draws, alpha), alpha

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, math.nan])
    def test_level_outside_the_unit_interval_is_an_input_error(self, laguerre_table_23, alpha):
        with pytest.raises(InvalidParams):
            laguerre_table_23.threshold_for(alpha)

    def test_invalid_draws_rejected(self):
        for draws in ((), (1.0, math.nan), (1.0, math.inf), (2.0, 1.0)):
            with pytest.raises(TableMismatch):
                QuantileTable("X", {}, draws, Seed(0))

    def test_version_one_document_names_its_version(self):
        doc = {"version": 1, "statistic_id": "X", "params": {}, "seed": {"value": 0, "stream": 0},
               "nsamples": 100, "entries": [{"alpha": 0.95, "q": 1.0}]}
        with pytest.raises(TableMismatch, match="version 1"):
            QuantileTable.loads(json.dumps(doc))

    @pytest.mark.parametrize("draws", ["123", [1.0, "2.0"], [1.0, True], 3.0, [10**400]])
    def test_draws_that_are_not_a_list_of_numbers_rejected(self, draws):
        doc = {"version": 2, "statistic_id": "X", "params": {}, "seed": {"value": 0, "stream": 0}, "draws": draws}
        with pytest.raises(TableMismatch):
            QuantileTable.loads(json.dumps(doc))


    @pytest.mark.parametrize(
        "test, statistic_id, params",
        [
            ("independence_small", STATISTIC_AIRY1_SUM, {"r": 1}),
            ("independence_small", STATISTIC_LAGUERRE_MAX, {"K": 2, "M": 4}),
            ("independence_large", STATISTIC_LAGUERRE_MAX, {"K": 2, "M": 3}),
            ("independence_large", STATISTIC_AIRY1_SUM, {"r": 2}),
            ("coint_small", STATISTIC_AIRY1_SUM, {"r": 1}),
            ("coint_small", STATISTIC_BROWNIAN_COINT, {"K": 3, "r": 1}),
            ("coint_large", STATISTIC_BROWNIAN_COINT, {"K": 2, "r": 1}),
            ("coint_large", STATISTIC_AIRY1_SUM, {"r": 2}),
        ],
    )
    def test_every_test_rejects_a_table_of_another_identity(self, test, statistic_id, params):
        table = QuantileTable(statistic_id, params, (1.0,), Seed(0))
        U, V = simulate_spiked_panels(2, 3, 60, [], Seed(0))
        X = simulate_var1(VarModel.pure_random_walk(2), 30, Seed(0))
        run, needed = {
            "independence_small": (lambda: independence_test_small(U, V, 0.95, table),
                                   (STATISTIC_LAGUERRE_MAX, {"K": 2, "M": 3})),
            "independence_large": (lambda: independence_test_large(U, V, 0.95, table), (STATISTIC_AIRY1_SUM, {"r": 1})),
            "coint_small": (lambda: coint_test_small(X, 1, 0.95, table), (STATISTIC_BROWNIAN_COINT, {"K": 2, "r": 1})),
            "coint_large": (lambda: coint_test_large(X, 1, 0.95, table), (STATISTIC_AIRY1_SUM, {"r": 1})),
        }[test]
        # the table is refused before the decision, so the 2 x 3 panels raise no regime warning
        with pytest.raises(TableMismatch, match=statistic_id) as info:
            run()
        assert str(needed) in str(info.value)


def _panels(K, M, S):
    return simulate_spiked_panels(K, M, S, [], Seed(0))


def _series(K, T):
    return simulate_var1(VarModel.pure_random_walk(K), T, Seed(0))


class RecordingStore:
    """Stands in for a table store: records each request and answers it with a one-draw table."""

    def __init__(self, draw=1.0):
        self.calls = []
        self.draw = draw

    def require(self, statistic_id, **params):
        self.calls.append((statistic_id, params))
        return QuantileTable(statistic_id, params, (self.draw,), Seed(0))


class TestTableRequest:
    """Each test asks its store once, with its identity, and only after its input passes."""

    @pytest.mark.parametrize(
        "test, identity",
        [
            (lambda store: independence_test_small(*_panels(3, 2, 60), 0.95, store),
             (STATISTIC_LAGUERRE_MAX, {"K": 2, "M": 3})),
            (lambda store: independence_test_large(*_panels(60, 50, 300), 0.95, store),
             (STATISTIC_AIRY1_SUM, {"r": 1})),
            (lambda store: coint_test_small(_series(3, 100), 2, 0.95, store),
             (STATISTIC_BROWNIAN_COINT, {"K": 3, "r": 2})),
            (lambda store: coint_test_large(_series(3, 100), 2, 0.95, store), (STATISTIC_AIRY1_SUM, {"r": 2})),
        ],
        ids=["independence_small", "independence_large", "coint_small", "coint_large"],
    )
    def test_valid_input_asks_once_with_its_identity(self, test, identity):
        store = RecordingStore()
        report = test(store)
        assert store.calls == [identity]
        assert report.threshold in (1.0, -0.5)  # read off the table the store answered with

    @pytest.mark.parametrize(
        "test, error",
        [
            (lambda store: independence_test_small(*_panels(40, 50, 80), 0.95, store), TooFewObservations),
            (lambda store: independence_test_large(*_panels(40, 50, 80), 0.95, store), InvalidRegime),
            (lambda store: coint_test_small(_series(60, 100), 1, 0.95, store), TooFewObservations),
            (lambda store: coint_test_small(_series(3, 100), 5, 0.95, store), DimensionMismatch),
            (lambda store: coint_test_large(_series(60, 100), 1, 0.95, store), InvalidRegime),
            (lambda store: coint_test_large(_series(3, 100), 5, 0.95, store), DimensionMismatch),
        ],
        ids=["independence_small-k-plus-m-above-s", "independence_large-outside-region",
             "coint_small-t-below-2k", "coint_small-rank-above-k",
             "coint_large-t-below-2k", "coint_large-rank-above-k"],
    )
    def test_bad_input_never_asks(self, test, error):
        # with warnings as errors, this also pins each regime warning after the input checks
        store = RecordingStore()
        with pytest.raises(error):
            test(store)
        assert store.calls == []


class TestDecisionRule:
    """Every test sets threshold = scale * q_alpha and never rejects a tie; one ulp past it rejects."""

    @pytest.mark.parametrize(
        "test, scale",
        [
            (lambda store: independence_test_small(*_panels(3, 2, 60), 0.95, store), 1.0),
            (lambda store: independence_test_large(*_panels(60, 50, 300), 0.95, store), 1.0),
            (lambda store: coint_test_small(_series(3, 100), 2, 0.95, store), -0.5),
            (lambda store: coint_test_large(_series(3, 100), 2, 0.95, store), 1.0),
        ],
        ids=["independence_small", "independence_large", "coint_small", "coint_large"],
    )
    def test_a_tie_fails_to_reject_and_one_ulp_past_it_rejects(self, test, scale):
        statistic = test(RecordingStore()).statistic_value
        tie = test(RecordingStore(statistic / scale))
        assert (tie.statistic_value, tie.threshold, tie.decision) == (statistic, statistic, "fail_to_reject")
        # a lower draw lowers scale * draw for scale > 0 and raises it for scale < 0: the rejecting side
        past = test(RecordingStore(np.nextafter(statistic / scale, -math.inf)))
        assert past.threshold == np.nextafter(statistic, math.copysign(math.inf, -scale))
        assert past.decision == "reject"

    @pytest.mark.parametrize("alpha", [0.05, 0.5])
    @pytest.mark.parametrize(
        "test",
        [
            lambda alpha: independence_test_small(*_panels(3, 2, 60), alpha, RecordingStore()),
            lambda alpha: independence_test_large(*_panels(60, 50, 300), alpha, RecordingStore()),
            lambda alpha: coint_test_small(_series(3, 100), 2, alpha, RecordingStore()),
            lambda alpha: coint_test_large(_series(3, 100), 2, alpha, RecordingStore()),
        ],
        ids=["independence_small", "independence_large", "coint_small", "coint_large"],
    )
    def test_a_level_at_or_below_one_half_is_refused(self, test, alpha):
        # alpha is the confidence level 1 - size: 0.05 would run a test of size 0.95
        with pytest.raises(InvalidParams, match=r"alpha is the confidence level 1 - size, got 0\.5?"):
            test(alpha)


class TestTabulateLaguerreMax:
    def test_scalar_case_matches_chi_squared_quantiles(self):
        M, n = 5, 40_000
        table = tabulate_laguerre_max(1, M, (0.9, 0.95, 0.99), n, Seed(21))
        for alpha in (0.9, 0.95, 0.99):
            q = table.threshold_for(alpha)
            exact = chi2.ppf(alpha, M)
            se = math.sqrt(alpha * (1 - alpha) / n) / chi2.pdf(exact, M)
            assert q == pytest.approx(exact, abs=4 * se)

    def test_quantiles_monotone_in_level(self, laguerre_table_23):
        qs = [laguerre_table_23.threshold_for(alpha) for alpha in (0.9, 0.95, 0.99)]
        assert qs == sorted(qs)

    def test_stable_under_doubling_the_sample_count(self):
        alphas = (0.9, 0.95)
        a = tabulate_laguerre_max(1, 5, alphas, 20_000, Seed(22))
        b = tabulate_laguerre_max(1, 5, alphas, 40_000, Seed(23))
        for alpha in alphas:
            qa, qb = a.threshold_for(alpha), b.threshold_for(alpha)
            exact = chi2.ppf(alpha, 5)
            se_a = math.sqrt(alpha * (1 - alpha) / 20_000) / chi2.pdf(exact, 5)
            se_b = se_a / math.sqrt(2.0)
            assert abs(qa - qb) < 2 * (se_a + se_b)


class TestIndependenceSmall:
    def test_null_size_close_to_nominal(self, laguerre_table_23):
        K, M, S, reps, alpha = 2, 3, 500, 1000, 0.95
        rejections = 0
        for i in range(reps):
            U, V = simulate_spiked_panels(K, M, S, [], Seed(23, i))
            rejections += independence_test_small(U, V, alpha, laguerre_table_23).rejected
        assert rejections / reps == pytest.approx(0.05, abs=0.02)

    def test_near_copy_panel_rejects(self, laguerre_table_23):
        rng = np.random.default_rng(24)
        U = rng.standard_normal((2, 400))
        V = np.vstack([U + 1e-3 * rng.standard_normal((2, 400)), rng.standard_normal(400)])
        report = independence_test_small(DataPanel(U), DataPanel(V), 0.95, laguerre_table_23)
        assert report.rejected
        assert report.regime == "small_dim"

    def test_power_against_a_planted_signal(self, laguerre_table_23):
        reps = 200
        hits = 0
        for i in range(reps):
            U, V = simulate_spiked_panels(2, 3, 1000, [0.3**2], Seed(25, i))
            hits += independence_test_small(U, V, 0.95, laguerre_table_23).rejected
        assert hits / reps > 0.9

    def test_dimension_mismatch_with_table(self, laguerre_table_23):
        U, V = simulate_spiked_panels(2, 4, 60, [], Seed(0))
        with pytest.raises(TableMismatch):
            independence_test_small(U, V, 0.95, laguerre_table_23)


class TestTabulateAiry1Sums:
    def test_top_coordinate_mean_is_negative(self):
        table = tabulate_airy1_sums(1, (0.45, 0.5, 0.55), 100, 4000, Seed(26))
        assert table.threshold_for(0.5) < 0.0  # the median is negative too

    def test_partial_sum_quantiles_decrease_with_more_coordinates(self):
        tables = {
            r: tabulate_airy1_sums(r, (0.5, 0.9), 100, 4000, Seed(27)) for r in (1, 2, 3)
        }
        for alpha in (0.5, 0.9):
            qs = [tables[r].threshold_for(alpha) for r in (1, 2, 3)]
            assert qs[0] > qs[1] > qs[2]

    @pytest.mark.slow
    def test_quantiles_stable_in_the_simulated_size(self):
        a = tabulate_airy1_sums(1, (0.5,), 200, 1200, Seed(28))
        b = tabulate_airy1_sums(1, (0.5,), 400, 1200, Seed(29))
        assert abs(a.threshold_for(0.5) - b.threshold_for(0.5)) < 0.1

    def test_size_floor_enforced(self):
        with pytest.raises(Exception):
            tabulate_airy1_sums(1, (0.5,), 50, 100, Seed(0))

    def test_each_table_samples_once_with_top_r(self, monkeypatch):
        tops = []

        def counting(*args, top=None):
            tops.append(top)
            return manova_spectra(*args, top=top)

        monkeypatch.setattr(hyptest, "manova_spectra", counting)
        for r in (1, 2, 10):
            tabulate_airy1_sums(r, (0.5,), 100, 50, Seed(30, 7))
        assert tops == [1, 2, 10]

    def test_any_r_up_to_the_simulated_size(self):
        assert tabulate_airy1_sums(11, (), 100, 20, Seed(0)).params["r"] == 11
        for r in (0, 101):
            with pytest.raises(InvalidParams, match=f"need 1 <= r <= sim_size, got r={r}, sim_size=100"):
                tabulate_airy1_sums(r, (), 100, 20, Seed(0))

    @pytest.mark.parametrize("ratios", [(1.5, 5.0), (1.99, 10.98)])
    def test_quantiles_equal_those_of_the_top_ten_partial_sums(self, ratios):
        """Bisecting only the r summed eigenvalues leaves every quantile bit for bit."""
        alphas, K, n, seed = (0.5, 0.9, 0.95, 0.99), 100, 1000, Seed(7)
        M, S = int(round(ratios[0] * K)), int(round(ratios[1] * K))
        params = WachterParams(tau_k=S / K, tau_m=S / M)
        top = manova_spectra(K, M, S - M, n, seed, top=10)[:, ::-1]
        sums = np.cumsum(edge_scale(params, K) * (top - params.lambda_plus), axis=1)
        for r in (1, 2, 10):
            table = tabulate_airy1_sums(r, alphas, K, n, seed, *ratios)
            assert [table.threshold_for(a) for a in alphas] == np.quantile(sums[:, r - 1], alphas).tolist()


class TestIndependenceLarge:
    def test_supercritical_spike_rejected(self, airy_table_r1):
        K, M, S = 100, 150, 800
        hits = 0
        reps = 50
        for i in range(reps):
            U, V = simulate_spiked_panels(K, M, S, [0.49], Seed(30, i))
            hits += independence_test_large(U, V, 0.95, airy_table_r1).rejected
        assert hits / reps > 0.95

    def test_subcritical_spike_has_no_power(self, airy_table_r1):
        K, M, S = 100, 150, 800  # critical strength is about 0.18
        hits = 0
        reps = 200
        for i in range(reps):
            U, V = simulate_spiked_panels(K, M, S, [0.1], Seed(31, i))
            hits += independence_test_large(U, V, 0.95, airy_table_r1).rejected
        assert hits / reps < 0.15

    def test_small_panels_warn(self, airy_table_r1):
        U, V = simulate_spiked_panels(10, 12, 100, [], Seed(32))
        with pytest.warns(RuntimeWarning):
            independence_test_large(U, V, 0.95, airy_table_r1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_invalid_regime_rejected(self, airy_table_r1):
        U, V = simulate_spiked_panels(40, 50, 80, [], Seed(33))
        with pytest.raises(InvalidRegime):
            independence_test_large(U, V, 0.95, airy_table_r1)

    def test_panel_order_does_not_matter(self, airy_table_r1):
        U, V = simulate_spiked_panels(100, 150, 800, [0.3], Seed(36))
        swapped = independence_test_large(V, U, 0.95, airy_table_r1)
        assert swapped == independence_test_large(U, V, 0.95, airy_table_r1)

    def test_wrong_table_kind_rejected(self, laguerre_table_23):
        U, V = simulate_spiked_panels(60, 70, 500, [], Seed(34))
        with pytest.raises(TableMismatch):
            independence_test_large(U, V, 0.95, laguerre_table_23)


class TestRegimeAgreement:
    def test_both_regimes_threshold_the_same_monotone_statistic(self, airy_table_r1):
        S, alpha = 100, 0.95
        small_table = tabulate_laguerre_max(1, 1, (alpha,), 40_000, Seed(35))
        params = WachterParams(float(S), float(S))
        unit = upper_edge_constant(params) ** (-2.0 / 3.0)
        cut_small = small_table.threshold_for(alpha) / S
        cut_large = params.lambda_plus + airy_table_r1.threshold_for(alpha) * unit
        lo, hi = sorted((cut_small, cut_large))

        def panels(c):
            u = np.zeros(S)
            u[0] = 1.0
            v = np.zeros(S)
            v[0], v[1] = c, math.sqrt(1.0 - c * c)
            return DataPanel([u]), DataPanel([v])

        decisions = []
        for c2 in (0.2 * lo, 0.6 * lo, 2.0 * hi, 10.0 * hi, 0.9):
            U, V = panels(math.sqrt(c2))
            small = independence_test_small(U, V, alpha, small_table).rejected
            with pytest.warns(RuntimeWarning):
                large = independence_test_large(U, V, alpha, airy_table_r1).rejected
            assert small == large == (c2 > hi)
            decisions.append(small)
        assert decisions == sorted(decisions)  # monotone switch in the statistic


class TestSmallPathPinned:
    """The small-dimension tests' statistics on five seeded replicates each, as float.hex.

    Bit for bit on one build, like ``golden_cca_3x20.json``: the replicates of
    the Monte Carlo study, whose checks and clips must keep every bit.
    """

    INDEPENDENCE = ("0x1.eea548330d933p+2", "0x1.7ac4865775511p+1", "0x1.97a0f84d0a584p+1",
                    "0x1.9115be8fc23f5p+2", "0x1.a84fa45be7a21p+2")
    COINT = ("-0x1.3597c3e529509p+1", "-0x1.7cf22e2b9246ap+0", "-0x1.6aa032c22fd84p+1",
             "-0x1.5a13b15a5e33dp+1", "-0x1.8cedfe304a789p+2")

    def test_independence_small(self):
        table = QuantileTable(STATISTIC_LAGUERRE_MAX, {"K": 2, "M": 3}, (1.0,), Seed(0))
        got = [independence_test_small(*simulate_spiked_panels(2, 3, 500, [], Seed(3, i)), 0.95, table)
               for i in range(5)]
        assert tuple(r.statistic_value.hex() for r in got) == self.INDEPENDENCE

    def test_coint_small(self):
        table = QuantileTable(STATISTIC_BROWNIAN_COINT, {"K": 2, "r": 1}, (1.0,), Seed(0))
        model = VarModel.pure_random_walk(2)
        got = [coint_test_small(simulate_var1(model, 1000, Seed(3, i)), 1, 0.95, table) for i in range(5)]
        assert tuple(r.statistic_value.hex() for r in got) == self.COINT
