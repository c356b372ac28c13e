import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from hdcca.errors import DegenerateLowerEdge, InvalidParams, PoleOrBranchCut
from hdcca.wachter import (
    Spectrum,
    WachterParams,
    cdf,
    edge_constants,
    ks_distance,
    pdf,
    ppf,
    stieltjes,
    support,
    support_endpoints,
)

P = WachterParams(5.0, 10.0 / 3.0)

ratio_pairs = st.tuples(
    st.floats(1.05, 50.0), st.floats(1.05, 50.0)
).filter(lambda tm: 1.0 / tm[0] + 1.0 / tm[1] < 0.99)


class TestParamsAndSupport:
    def test_frozen_support_values(self):
        lo, hi = support(P)
        assert lo == pytest.approx(0.0133939444035328, abs=1e-12)
        assert hi == pytest.approx(0.7466060555964671, abs=1e-12)

    def test_equal_ratios_put_lower_edge_at_zero(self):
        lo, hi = support(WachterParams(3.0, 3.0))
        assert lo == pytest.approx(0.0, abs=1e-15)
        assert 0.0 < hi < 1.0

    def test_invalid_ratio_combinations(self):
        with pytest.raises(InvalidParams):
            WachterParams(2.0, 2.0)  # inverse sum equals 1
        with pytest.raises(InvalidParams):
            WachterParams(0.9, 0.9)
        with pytest.raises(InvalidParams):
            WachterParams(3.0, 5.0)  # ordering violated

    @given(pair=ratio_pairs)
    @settings(max_examples=50, deadline=None)
    def test_support_symmetric_in_the_ratios(self, pair):
        a, b = pair
        lo1, hi1 = support_endpoints(a, b)
        lo2, hi2 = support_endpoints(b, a)
        assert lo1 == pytest.approx(lo2, rel=1e-12, abs=1e-15)
        assert hi1 == pytest.approx(hi2, rel=1e-12)
        assert 0.0 <= lo1 < hi1 < 1.0

    def test_from_dimensions_orders_the_panels(self):
        assert WachterParams.from_dimensions(150, 100, 500) == WachterParams(5.0, 10.0 / 3.0)


class TestPdf:
    def test_zero_outside_support(self):
        lo, hi = support(P)
        assert pdf(lo - 1e-6, P) == 0.0
        assert pdf(hi + 1e-6, P) == 0.0
        assert pdf(0.5 * (lo + hi), P) > 0.0

    def test_integrates_to_one(self):
        lo, hi = support(P)
        total, err = quad(lambda x: pdf(x, P), lo, hi, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_square_root_edge_asymptotics(self):
        lo, hi = support(P)
        c_minus, c_plus = edge_constants(P)
        dx = 1e-4 * (hi - lo)
        assert pdf(hi - dx, P) / (c_plus / np.pi * np.sqrt(dx)) == pytest.approx(1.0, rel=0.02)
        assert pdf(lo + dx, P) / (c_minus / np.pi * np.sqrt(dx)) == pytest.approx(1.0, rel=0.02)


class TestCdf:
    def test_boundary_values(self):
        assert cdf(0.0, P) == 0.0
        assert cdf(1.0, P) == 1.0
        lo, hi = support(P)
        assert cdf(lo, P) == 0.0
        assert cdf(hi, P) == 1.0

    def test_against_adaptive_quadrature(self):
        lo, hi = support(P)
        for x0 in np.linspace(lo + 0.01, hi - 0.01, 7):
            target, _ = quad(lambda x: pdf(x, P), lo, x0, limit=400)
            assert cdf(x0, P) == pytest.approx(target, abs=1e-8)

    def test_median_self_consistency(self):
        med = ppf(0.5, P)
        assert cdf(med, P) == pytest.approx(0.5, abs=1e-7)

    def test_monotone(self):
        xs = np.linspace(0.0, 1.0, 300)
        vals = cdf(xs, P)
        assert np.all(np.diff(vals) >= 0.0)

    def test_nan_stays_nan(self):
        assert np.isnan(cdf(np.nan, P))

    @pytest.mark.parametrize("q", [np.nan, [0.5, np.nan]], ids=["scalar", "array"])
    def test_ppf_rejects_nan_levels(self, q):
        with pytest.raises(InvalidParams, match="quantile levels"):
            ppf(q, P)


@pytest.mark.parametrize(
    "tau_k, tau_m", [(5.0, 3.0), (10.98, 5.52), (100.0, 3.0), (5.0, 10.0 / 3.0), (3.0, 3.0), (2.5, 2.5)]
)
class TestClosedFormCdf:
    def test_against_adaptive_quadrature(self, tau_k, tau_m):
        # quad of pdf in the edge angle, where the integrand is smooth even at a zero lower edge
        p = WachterParams(tau_k, tau_m)
        lo, hi = support(p)
        for x0 in np.linspace(lo, hi, 41)[1:-1]:
            theta0 = np.arcsin(np.sqrt((x0 - lo) / (hi - lo)))
            target, _ = quad(
                lambda t: pdf(lo + (hi - lo) * np.sin(t) ** 2, p) * (hi - lo) * np.sin(2.0 * t),
                0.0, theta0, epsabs=3e-14, epsrel=0.0, limit=200,
            )
            assert abs(cdf(x0, p) - target) < 1e-13

    def test_ppf_round_trip(self, tau_k, tau_m):
        p = WachterParams(tau_k, tau_m)
        q = np.linspace(0.0, 1.0, 1001)
        assert np.max(np.abs(cdf(ppf(q, p), p) - q)) < 1e-12

    def test_exact_endpoints(self, tau_k, tau_m):
        p = WachterParams(tau_k, tau_m)
        lo, hi = support(p)
        assert ppf(0.0, p) == lo and ppf(1.0, p) == hi
        assert cdf(lo, p) == 0.0 and cdf(hi, p) == 1.0

    def test_monotone_on_a_fine_grid(self, tau_k, tau_m):
        assert np.all(np.diff(cdf(np.linspace(0.0, 1.0, 200_001), WachterParams(tau_k, tau_m))) >= 0.0)


class TestStieltjes:
    def test_real_point_against_quadrature(self):
        lo, hi = support(P)
        for z in (10.0, 2.0, -3.0, 0.9):
            if lo <= z <= hi:
                continue
            target, _ = quad(lambda x: pdf(x, P) / (z - x), lo, hi, limit=400)
            G = stieltjes(z, P)
            assert abs(G.imag) < 1e-12
            assert G.real == pytest.approx(target, abs=1e-8)

    def test_asymptotic_normalization(self):
        rays = [1e6 * np.exp(1j * ang) for ang in (0.0, 0.7, 2.0, -1.1, np.pi, -np.pi)]
        for z in (*rays, complex(-1e6, 0.0), complex(-1e6, -0.0)):
            assert abs(z * stieltjes(z, P) - 1.0) < 1e-5

    def test_quadratic_equation_residual(self):
        ik, im = 1.0 / P.tau_k, 1.0 / P.tau_m
        for z in (2.0 + 1.0j, -1.0 + 0.5j, 0.4 + 2.0j, 5.0 - 3.0j):
            G = stieltjes(z, P)
            res = (
                (ik - 1.0) / ik / (z * (z - 1.0))
                + ((im - ik) / ik / z + (1.0 - ik - im) / ik / (z - 1.0)) * G
                + G**2
            )
            assert abs(res) < 1e-10

    def test_branch_cut_and_poles_rejected(self):
        lo, hi = support(P)
        with pytest.raises(PoleOrBranchCut):
            stieltjes(0.5 * (lo + hi), P)
        with pytest.raises(PoleOrBranchCut):
            stieltjes(0.0, P)
        with pytest.raises(PoleOrBranchCut):
            stieltjes(1.0, P)

    def test_imaginary_part_recovers_density(self):
        lo, hi = support(P)
        for x0 in np.linspace(lo + 0.02, hi - 0.02, 9):
            approx = stieltjes(x0 - 1e-6j, P).imag / np.pi
            assert approx == pytest.approx(pdf(x0, P), abs=1e-3)


class TestEdgeConstants:
    def test_frozen_values(self):
        c_minus, c_plus = edge_constants(P)
        assert c_minus == pytest.approx(161.99535243373245, rel=1e-12)
        assert c_plus == pytest.approx(11.31532633772425, rel=1e-12)

    @given(pair=ratio_pairs)
    @settings(max_examples=50, deadline=None)
    def test_positive(self, pair):
        a, b = sorted(pair, reverse=True)
        if a == b:
            return
        c_minus, c_plus = edge_constants(WachterParams(a, b))
        assert c_minus > 0.0 and c_plus > 0.0

    def test_degenerate_lower_edge(self):
        with pytest.raises(DegenerateLowerEdge):
            edge_constants(WachterParams(3.0, 3.0))


class TestKsDistance:
    def test_iid_sample_from_the_law_is_close(self):
        n = 10_000
        u = (np.arange(n) + np.random.default_rng(5).uniform(size=n)) / n
        values = np.sort(ppf(u, P))[::-1]
        spec = Spectrum(values, meta={"K": n})
        assert ks_distance(spec, P) < 1.5 / np.sqrt(n)

    def test_constant_spectrum_is_far(self):
        x0 = 0.3
        spec = Spectrum(np.full(50, x0))
        assert ks_distance(spec, P) >= 1.0 - cdf(x0, P) - 1e-12

    def test_empty_spectrum_forbidden(self):
        with pytest.raises(InvalidParams):
            Spectrum(np.array([]))

    def test_clipped_values_keep_the_bits_of_np_clip(self):
        vals = np.array([1.0 + 5e-10, 1.0, 0.5, 0.0, -0.0, -5e-10])
        spec = Spectrum(vals)
        assert spec.values.tobytes() == np.clip(vals, 0.0, 1.0).tobytes()
        assert np.signbit(spec.values[4]) and not spec.values.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_spectrum_forbidden(self, bad):
        with pytest.raises(InvalidParams, match="finite"):
            Spectrum(np.array([bad, 0.3]))
