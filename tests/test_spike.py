import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdcca.cca_core import DataPanel, alignment_angle, sample_cca
from hdcca.ensembles import Seed
from hdcca.errors import AboveOne, BelowEdge, ParameterRange, Subcritical
from hdcca.spike import (
    detection_threshold,
    estimate_signals,
    predicted_angles,
    rho2_from_z,
    simulate_spiked_panels,
    z_from_rho2,
)
from hdcca.wachter import Spectrum, WachterParams, ks_distance
from oracles import PoleHit, limit_equation_residual, master_equation_residual

P8 = WachterParams(8.0, 16.0 / 3.0)


def _angle_formulas(rho2, tk, tm):
    denom = (tm - 1.0) * (tk - 1.0) * rho2 - 1.0
    s_u = (1 - rho2) * (tk - 1) / denom * ((tm - 1) * rho2 + 1) / ((tk - 1) * rho2 + 1)
    s_v = (1 - rho2) * (tm - 1) / denom * ((tk - 1) * rho2 + 1) / ((tm - 1) * rho2 + 1)
    return s_u, s_v


class TestDetectionThreshold:
    def test_boundary_parameter_pair_gives_one(self):
        assert detection_threshold(WachterParams(2.0 + 1e-9, 2.0)) == pytest.approx(1.0, abs=1e-6)

    def test_frozen_reference_value(self):
        assert detection_threshold(P8) == pytest.approx(0.18156825980064073, rel=1e-12)

    @given(tk=st.floats(2.1, 40.0), tm=st.floats(2.1, 40.0))
    @settings(max_examples=40, deadline=None)
    def test_strictly_decreasing_in_each_ratio(self, tk, tm):
        tk, tm = max(tk, tm), min(tk, tm)
        base = detection_threshold(WachterParams(tk, tm))
        assert detection_threshold(WachterParams(tk + 0.5, tm)) < base
        assert detection_threshold(WachterParams(tk + 0.5, tm + 0.5)) < base


class TestZFromRho2:
    def test_frozen_reference_value(self):
        assert z_from_rho2(0.49, P8) == pytest.approx(0.6618160076530611, abs=1e-12)

    def test_continuity_at_the_critical_point(self):
        crit = detection_threshold(P8)
        assert z_from_rho2(crit + 1e-9, P8) == pytest.approx(P8.lambda_plus, abs=1e-6)

    def test_large_ratio_limit_recovers_the_signal(self):
        rho2 = 0.3
        big = WachterParams(5e5, 4e5)
        assert z_from_rho2(rho2, big) == pytest.approx(rho2, abs=1e-4)

    def test_subcritical_rejected(self):
        with pytest.raises(Subcritical):
            z_from_rho2(0.1, P8)

    @given(rho2=st.floats(0.19, 0.999999))
    @settings(max_examples=50, deadline=None)
    def test_overestimates_the_signal_and_exceeds_the_edge(self, rho2):
        z = z_from_rho2(rho2, P8)
        assert z > P8.lambda_plus
        assert z > rho2


class TestRho2FromZ:
    def test_round_trip_on_a_grid(self):
        crit = detection_threshold(P8)
        for rho2 in np.linspace(crit + 1e-6, 1.0, 100):
            assert rho2_from_z(z_from_rho2(rho2, P8), P8) == pytest.approx(rho2, abs=1e-10)

    def test_edge_limit_is_the_critical_value(self):
        got = rho2_from_z(P8.lambda_plus + 1e-12, P8)
        assert got == pytest.approx(detection_threshold(P8), abs=1e-6)

    def test_figure_reference_round_trip(self):
        assert rho2_from_z(0.6618160076530611, P8) == pytest.approx(0.49, abs=1e-10)

    def test_below_edge_rejected(self):
        with pytest.raises(BelowEdge):
            rho2_from_z(P8.lambda_plus - 0.01, P8)

    def test_above_one_reported(self):
        z_max = z_from_rho2(1.0, P8)
        with pytest.raises(AboveOne):
            rho2_from_z(z_max + 0.05, P8)


class TestPredictedAngles:
    def test_perfect_signal_has_no_angle(self):
        s_u, s_v = predicted_angles(1.0, P8)
        assert s_u == pytest.approx(0.0, abs=1e-14)
        assert s_v == pytest.approx(0.0, abs=1e-14)

    @given(rho2=st.floats(0.2, 0.99))
    @settings(max_examples=50, deadline=None)
    def test_swap_symmetry_of_the_two_sides(self, rho2):
        tk, tm = 8.0, 16.0 / 3.0
        s_u, s_v = predicted_angles(rho2, P8)
        s_u_swap, s_v_swap = _angle_formulas(rho2, tm, tk)
        assert s_u == pytest.approx(s_v_swap, rel=1e-12)
        assert s_v == pytest.approx(s_u_swap, rel=1e-12)
        assert 0.0 < s_u < 1.0 and 0.0 < s_v < 1.0

    def test_simulation_matches_predictions(self):
        # single moderate-size run; the acceptance suite does the full version
        K, M, S = 200, 300, 1600
        params = WachterParams(S / K, S / M)
        U, V = simulate_spiked_panels(K, M, S, [0.49], Seed(77))
        cs = sample_cca(U, V)
        s_u, s_v = predicted_angles(0.49, params)
        e1_u = np.eye(K)[0]
        e1_v = np.eye(M)[0]
        assert alignment_angle(U, e1_u, cs.alphas[0]) == pytest.approx(s_u, abs=0.08)
        assert alignment_angle(V, e1_v, cs.betas[0]) == pytest.approx(s_v, abs=0.08)

    def test_subcritical_rejected(self):
        with pytest.raises(Subcritical):
            predicted_angles(0.15, P8)


@pytest.mark.parametrize("forward", [z_from_rho2, predicted_angles], ids=["z_from_rho2", "predicted_angles"])
@pytest.mark.parametrize("rho2", [1.2, float("nan")], ids=["above-one", "nan"])
def test_strength_above_one_is_a_parameter_range_error(forward, rho2):
    with pytest.raises(ParameterRange):
        forward(rho2, P8)


class TestEstimateSignals:
    def test_null_spectra_mostly_report_nothing(self):
        K, M, S = 100, 150, 500
        params = WachterParams(S / K, S / M)
        clean = 0
        runs = 40
        for i in range(runs):
            U, V = simulate_spiked_panels(K, M, S, [], Seed(200 + i))
            spec = Spectrum(sample_cca(U, V).correlations_sq, meta={"K": K, "M": M, "S": S})
            clean += estimate_signals(spec, params).n_signals == 0
        assert clean >= 0.95 * runs

    def test_single_supercritical_signal_found(self):
        K, M, S = 100, 150, 800  # ratios (8, 16/3), critical value 0.18
        params = WachterParams(S / K, S / M)
        hits = 0
        runs = 40
        for i in range(runs):
            U, V = simulate_spiked_panels(K, M, S, [0.49], Seed(300 + i))
            spec = Spectrum(sample_cca(U, V).correlations_sq, meta={"K": K, "M": M, "S": S})
            report = estimate_signals(spec, params)
            hits += report.n_signals == 1
        assert hits >= 0.95 * runs

    def test_three_separated_signals_found(self):
        K, M, S = 100, 150, 800
        params = WachterParams(S / K, S / M)
        planted = [0.8, 0.6, 0.4]
        hits = 0
        runs = 20
        for i in range(runs):
            U, V = simulate_spiked_panels(K, M, S, planted, Seed(400 + i))
            spec = Spectrum(sample_cca(U, V).correlations_sq, meta={"K": K, "M": M, "S": S})
            report = estimate_signals(spec, params)
            hits += report.n_signals == 3
        assert hits >= 0.9 * runs
        assert report.threshold_used > report.edge_used

    def test_requires_provenance(self):
        spec = Spectrum(np.array([0.5, 0.1]))
        with pytest.raises(ValueError):
            estimate_signals(spec, P8)


class TestMasterEquation:
    @staticmethod
    def _instance(seed, Kt, Mt, S):
        rng = np.random.default_rng(seed)
        tU = DataPanel(rng.standard_normal((Kt, S)))
        tV = DataPanel(rng.standard_normal((Mt, S)))
        u_star = rng.standard_normal(S)
        v_star = rng.standard_normal(S)
        return tU, tV, u_star, v_star

    def test_exact_triplets_satisfy_the_equation(self):
        tU, tV, u_star, v_star = self._instance(1, 3, 4, 20)
        aug = sample_cca(
            DataPanel(np.vstack([u_star, tU.values])),
            DataPanel(np.vstack([v_star, tV.values])),
        )
        for z in aug.correlations_sq:
            assert master_equation_residual(tU, tV, u_star, v_star, float(z)) < 1e-8

    def test_perturbed_z_is_rejected_sharply(self):
        tU, tV, u_star, v_star = self._instance(2, 2, 3, 18)
        aug = sample_cca(
            DataPanel(np.vstack([u_star, tU.values])),
            DataPanel(np.vstack([v_star, tV.values])),
        )
        res = master_equation_residual(tU, tV, u_star, v_star, float(aug.correlations_sq[0]) + 0.01)
        assert res > 1e-4

    def test_orthogonal_appended_vectors_reduce_to_zero(self):
        tU, tV, _, _ = self._instance(3, 3, 4, 20)
        rng = np.random.default_rng(4)
        Q, _ = np.linalg.qr(np.vstack([tU.values, tV.values]).T)
        u_star = rng.standard_normal(20)
        u_star -= Q @ (Q.T @ u_star)
        v_star = rng.standard_normal(20)
        v_star -= Q @ (Q.T @ v_star)
        v_star -= (u_star @ v_star) / (u_star @ u_star) * u_star
        assert master_equation_residual(tU, tV, u_star, v_star, 0.0) < 1e-12

    def test_pole_collision_detected(self):
        tU, tV, u_star, v_star = self._instance(5, 2, 3, 16)
        base = sample_cca(tU, tV)
        with pytest.raises(PoleHit):
            master_equation_residual(tU, tV, u_star, v_star, float(base.correlations_sq[0]))


class TestLimitEquation:
    def test_matched_pairs_solve_the_equation(self):
        # rho2 = 1 maps to z = 1, a pole of the transform, so stop short of it
        for rho2 in (0.25, 0.49, 0.8, 0.9999):
            z = z_from_rho2(rho2, P8)
            assert limit_equation_residual(z, rho2, P8) < 1e-9

    def test_matched_pairs_from_the_inverse_direction(self):
        for z in np.linspace(P8.lambda_plus + 0.01, z_from_rho2(0.9999, P8), 7):
            assert limit_equation_residual(float(z), rho2_from_z(float(z), P8), P8) < 1e-9

    def test_mismatched_pair_is_far_from_solving(self):
        z = z_from_rho2(0.49, P8)
        assert limit_equation_residual(z, 0.3, P8) > 0.1

    def test_below_edge_rejected(self):
        with pytest.raises(BelowEdge):
            limit_equation_residual(P8.lambda_plus - 1e-3, 0.5, P8)


class TestConsistencyRegime:
    def test_correlation_and_angle_estimates_converge(self):
        K, M, c1 = 2, 3, 0.5
        errs, angles = [], []
        for S in (10**3, 10**4, 10**5):
            U, V = simulate_spiked_panels(K, M, S, [c1**2], Seed(60 + S % 97))
            cs = sample_cca(U, V)
            errs.append(abs(np.sqrt(cs.correlations_sq[0]) - c1))
            angles.append(alignment_angle(U, np.eye(K)[0], cs.alphas[0]))
        assert errs[2] < errs[0]
        assert errs[2] < 0.02
        assert angles[2] < 0.02

    def test_one_spike_leaves_the_bulk_in_place(self):
        K, M, S = 100, 150, 500
        params = WachterParams(S / K, S / M)
        null_U, null_V = simulate_spiked_panels(K, M, S, [], Seed(500))
        spike_U, spike_V = simulate_spiked_panels(K, M, S, [0.6], Seed(500))
        ks_null = ks_distance(
            Spectrum(sample_cca(null_U, null_V).correlations_sq, meta={"K": K}), params
        )
        ks_spike = ks_distance(
            Spectrum(sample_cca(spike_U, spike_V).correlations_sq, meta={"K": K}), params
        )
        assert abs(ks_spike - ks_null) < 0.03
