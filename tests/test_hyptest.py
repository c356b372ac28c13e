import math

import numpy as np
import pytest
from scipy.stats import chi2, kstest

from hdcca import ensembles, hyptest, wachter
from hdcca.cca_core import DataPanel
from hdcca.ensembles import Seed, manova_spectra
from hdcca.errors import InvalidRegime, TableMismatch
from hdcca.hyptest import (
    QuantileTable,
    independence_test_large,
    independence_test_small,
    tabulate_airy1_sums,
    tabulate_laguerre_max,
)
from hdcca.spike import simulate_spiked_panels
from hdcca.wachter import WachterParams, upper_edge_constant


class TestQuantileTable:
    def test_round_trip_is_bit_exact(self, laguerre_table_23):
        clone = QuantileTable.loads(laguerre_table_23.dumps())
        assert clone == laguerre_table_23
        assert clone.dumps() == laguerre_table_23.dumps()

    def test_save_and_load(self, tmp_path, laguerre_table_23):
        path = tmp_path / "table.json"
        laguerre_table_23.save(path)
        assert QuantileTable.load(path) == laguerre_table_23

    def test_timestamp_can_be_omitted(self, laguerre_table_23):
        doc = laguerre_table_23.dumps(include_timestamp=False)
        assert "built_at" not in doc

    def test_invalid_entries_rejected(self):
        with pytest.raises(TableMismatch):
            QuantileTable("X", {}, ((0.95, 1.0), (0.9, 2.0)), 100, Seed(0))
        with pytest.raises(TableMismatch):
            QuantileTable("X", {}, ((0.9, 2.0), (0.95, 1.0)), 100, Seed(0))

    def test_missing_level_is_a_mismatch(self, laguerre_table_23):
        with pytest.raises(TableMismatch):
            laguerre_table_23.threshold_for(0.5)


class TestTabulateLaguerreMax:
    def test_scalar_case_matches_chi_squared_quantiles(self):
        M, n = 5, 40_000
        table = tabulate_laguerre_max(1, M, (0.9, 0.95, 0.99), n, Seed(21))
        for alpha, q in table.entries:
            exact = chi2.ppf(alpha, M)
            se = math.sqrt(alpha * (1 - alpha) / n) / chi2.pdf(exact, M)
            assert q == pytest.approx(exact, abs=4 * se)

    def test_quantiles_monotone_in_level(self, laguerre_table_23):
        qs = [q for _, q in laguerre_table_23.entries]
        assert qs == sorted(qs)

    def test_stable_under_doubling_the_sample_count(self):
        alphas = (0.9, 0.95)
        a = tabulate_laguerre_max(1, 5, alphas, 20_000, Seed(22))
        b = tabulate_laguerre_max(1, 5, alphas, 40_000, Seed(23))
        for (alpha, qa), (_, qb) in zip(a.entries, b.entries):
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
        assert table.entries[1][1] < 0.0  # the median is negative too

    def test_partial_sum_quantiles_decrease_with_more_coordinates(self):
        tables = {
            r: tabulate_airy1_sums(r, (0.5, 0.9), 100, 4000, Seed(27)) for r in (1, 2, 3)
        }
        for alpha_idx in (0, 1):
            qs = [tables[r].entries[alpha_idx][1] for r in (1, 2, 3)]
            assert qs[0] > qs[1] > qs[2]

    @pytest.mark.slow
    def test_quantiles_stable_in_the_simulated_size(self):
        a = tabulate_airy1_sums(1, (0.5,), 200, 1200, Seed(28))
        b = tabulate_airy1_sums(1, (0.5,), 400, 1200, Seed(29))
        assert abs(a.entries[0][1] - b.entries[0][1]) < 0.1

    def test_size_floor_enforced(self):
        with pytest.raises(Exception):
            tabulate_airy1_sums(1, (0.5,), 50, 100, Seed(0))

    def test_every_r_shares_one_bounded_memoized_simulation(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return manova_spectra(*args, **kwargs)

        monkeypatch.setattr(hyptest, "manova_spectra", counting)
        tables = [tabulate_airy1_sums(r, (0.5,), 100, 50, Seed(30, 7)) for r in (1, 2, 3)]
        assert len(calls) == 1
        assert tables[0].entries[0][1] > tables[2].entries[0][1]
        for memo in (hyptest._airy_partial_sums, ensembles._ds_spectra, wachter._table):
            assert memo.cache_info().maxsize == 8


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
