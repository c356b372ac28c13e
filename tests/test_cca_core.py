import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdcca.cca_core import (
    CanonicalSystem,
    CovarianceTriple,
    DataPanel,
    _checked_cholesky,
    _clip_unit_interval,
    _cluster_flags,
    _spectra,
    _tri_inv,
    alignment_angle,
    population_cca,
    sample_cca,
    sample_spectrum,
)
from hdcca.errors import (
    ClippingError,
    DimensionMismatch,
    InvalidParams,
    RankDeficient,
    SingularCovariance,
    TooFewObservations,
    ZeroImage,
)
from hdcca.ensembles import Seed
from hdcca.spike import simulate_spiked_panels
from oracles import sample_cca_projector_oracle, sequential_maximization_oracle

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_panels(seed, K, M, S):
    rng = np.random.default_rng(seed)
    return DataPanel(rng.standard_normal((K, S))), DataPanel(rng.standard_normal((M, S)))


def read_only(arr):
    arr.setflags(write=False)
    return arr


class TestDataPanel:
    def test_writable_source_is_copied(self):
        arr = np.arange(6.0).reshape(2, 3)
        panel = DataPanel(arr)
        arr[0, 0] = 9.0
        assert panel.values is not arr and panel.values[0, 0] == 0.0 and not panel.values.flags.writeable

    @pytest.mark.parametrize(
        "make",
        [lambda a: read_only(a[:, 1:]), lambda a: read_only(a.astype(np.float32)),
         lambda a: read_only(np.asfortranarray(a))],
        ids=["view", "float32", "fortran-order"],
    )
    def test_other_read_only_inputs_are_copied(self, make):
        arr = make(read_only(np.arange(12.0).reshape(3, 4)))
        panel = DataPanel(arr)
        assert panel.values is not arr and panel.values.base is None
        assert panel.values.dtype == np.float64 and panel.values.flags.c_contiguous
        np.testing.assert_array_equal(panel.values, arr)

    def test_read_only_owned_float64_array_is_adopted(self):
        arr = read_only(np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]))
        assert DataPanel(arr).values is arr

    @pytest.mark.parametrize(
        "arr, message",
        [(np.array([[0.0, np.nan]]), "finite"), (np.arange(3.0), "2-d"), (np.zeros((0, 3)), "at least 1x1")],
        ids=["non-finite", "one-d", "empty"],
    )
    def test_an_adoptable_array_is_still_checked(self, arr, message):
        with pytest.raises(DimensionMismatch, match=message):
            DataPanel(read_only(arr))


class TestSampleCca:
    def test_proportional_rows_have_unit_correlation(self):
        U = DataPanel([[1.0, 2.0, 3.0]])
        V = DataPanel([[2.0, 4.0, 6.0]])
        assert sample_cca(U, V).correlations_sq == pytest.approx([1.0], abs=1e-12)

    def test_orthogonal_rows_have_zero_correlations(self):
        U = DataPanel(np.eye(2, 8))
        V = DataPanel(np.eye(8)[3:6])
        np.testing.assert_allclose(sample_cca(U, V).correlations_sq, 0.0, atol=1e-12)

    def test_identical_panels_have_all_unit_correlations(self):
        U, _ = random_panels(0, 2, 2, 9)
        np.testing.assert_allclose(sample_cca(U, U).correlations_sq, 1.0, atol=1e-10)

    def test_column_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sample_cca(DataPanel(np.ones((1, 4))), DataPanel(np.eye(2, 5)))

    @pytest.mark.parametrize("tol", [np.nan, -1.0, 1.0, np.inf])
    def test_tol_outside_the_unit_interval_is_refused(self, tol):
        # a row equal to another plus 1e-7 noise fails the rank check at 1e-10
        rng = np.random.default_rng(7)
        U = rng.standard_normal((3, 50))
        U[2] = U[1] + 1e-7 * rng.standard_normal(50)
        V = DataPanel(rng.standard_normal((2, 50)))
        with pytest.raises(RankDeficient):
            sample_cca(DataPanel(U), V)
        with pytest.raises(InvalidParams, match=r"tol must lie in \[0, 1\)"):
            sample_cca(DataPanel(U), V, tol=tol)

    def test_rank_deficient_panel(self):
        row = np.arange(8.0)
        with pytest.raises(RankDeficient):
            sample_cca(DataPanel([row, 2 * row]), DataPanel(np.random.default_rng(0).standard_normal((2, 8))))

    def test_badly_scaled_row_keeps_the_spectrum(self):
        # full rank at any row scale: the rank check must not read the scale
        U, V = random_panels(0, 3, 2, 50)
        scaled = U.values.copy()
        scaled[0] *= 1e-6
        np.testing.assert_allclose(
            sample_cca(DataPanel(scaled), V).correlations_sq, sample_cca(U, V).correlations_sq, rtol=1e-9
        )

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_badly_scaled_row_keeps_the_canonical_variables(self, scale):
        # the variables U^T alpha_i are invariant under row scaling; only their signs may flip
        U, V = random_panels(3, 40, 60, 200)
        scaled = U.values.copy()
        scaled[0] *= scale
        base, cs = sample_cca(U, V), sample_cca(DataPanel(scaled), V)
        np.testing.assert_allclose(cs.correlations_sq, base.correlations_sq, rtol=0, atol=1e-13)
        pairs = ((U.values, base.alphas, scaled, cs.alphas), (V.values, base.betas, V.values, cs.betas))
        for X, old, Y, new in pairs:
            a, b = X.T @ old.T, Y.T @ new.T
            np.testing.assert_allclose(b * np.sign(np.sum(a * b, axis=0)), a, rtol=0, atol=1e-12)

    def test_too_few_observations(self):
        U, V = random_panels(1, 3, 3, 5)
        with pytest.raises(TooFewObservations):
            sample_cca(U, V)

    def test_unit_norm_canonical_variables_and_orthogonality_table(self):
        U, V = random_panels(7, 3, 4, 24)
        cs = sample_cca(U, V)
        u = U.values.T @ cs.alphas.T
        v = V.values.T @ cs.betas.T
        np.testing.assert_allclose(u.T @ u, np.eye(3), atol=1e-8)
        np.testing.assert_allclose(v.T @ v, np.eye(4), atol=1e-8)
        cross = u.T @ v
        expect = np.zeros((3, 4))
        expect[:3, :3] = np.diag(np.sqrt(cs.correlations_sq))
        np.testing.assert_allclose(cross, expect, atol=1e-8)
        assert np.all(np.diag(cross) >= -1e-12)


class TestTriInv:
    @pytest.mark.parametrize("n", [1, 2, 32, 33, 65, 150, 257])
    @pytest.mark.parametrize("row_scale", [1.0, 1e-6])
    def test_exact_lower_triangular_inverse(self, n, row_scale):
        # odd splits, the direct base case, and a Cholesky factor with one badly scaled row
        X = np.random.default_rng(n).standard_normal((n, 2 * n + 3))
        X[0] *= row_scale
        L = np.linalg.cholesky(X @ X.T)
        inv = _tri_inv(L)
        assert np.all(np.triu(inv, 1) == 0.0)
        residual = np.linalg.norm(L @ inv - np.eye(n), 2)
        assert residual <= 10 * np.finfo(float).eps * np.linalg.cond(L)

    @pytest.mark.parametrize("n", [1, 2, 32, 33])
    def test_upper_part_is_positive_zero(self, n):
        # both sides of the direct base case and the first blocked size
        X = np.random.default_rng(n).standard_normal((n, 2 * n + 3))
        upper = _tri_inv(np.linalg.cholesky(X @ X.T))[np.triu_indices(n, 1)]
        assert np.all(upper == 0.0) and not np.signbit(upper).any()


class TestClipUnitInterval:
    def test_keeps_the_bits_of_np_clip(self):
        vals = np.array([1.0 + 5e-13, 1.0, 0.5, 0.0, -0.0, -5e-13])
        out = _clip_unit_interval(vals, 1e-12)
        assert out.tobytes() == np.clip(vals, 0.0, 1.0).tobytes()
        assert np.signbit(out[4])  # np.clip keeps -0.0; np.maximum(-0.0, 0.0) would not

    @pytest.mark.parametrize(
        "vals", [[1.0 + 1e-9, 0.5], [0.5, -1e-9], [np.nan, 2.0], [-1.0, np.nan]],
        ids=["above", "below", "above-beside-nan", "below-beside-nan"],
    )
    def test_any_value_outside_the_band_raises(self, vals):
        with pytest.raises(ClippingError, match="outside"):
            _clip_unit_interval(np.array(vals), 1e-12)


class TestProjectorOracle:
    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_whitened_svd_route(self, seed):
        U, V = random_panels(seed, 2, 3, 10)
        spec = sample_cca_projector_oracle(U, V)
        np.testing.assert_allclose(spec.values, sample_cca(U, V).correlations_sq, atol=1e-8)

    def test_identical_panels(self):
        U, _ = random_panels(3, 2, 2, 9)
        np.testing.assert_allclose(sample_cca_projector_oracle(U, U).values, 1.0, atol=1e-10)

    def test_rank_bounded_by_smaller_dimension(self):
        U, V = random_panels(5, 2, 5, 16)
        spec = sample_cca_projector_oracle(U, V)
        assert len(spec.values) == 2
        assert spec.meta == {"K": 2, "M": 5, "S": 16}


class TestSequentialMaximizationOracle:
    def test_single_row_pair_recovers_absolute_correlation(self):
        rng = np.random.default_rng(11)
        u = rng.standard_normal(12)
        v = -0.8 * u + 0.3 * rng.standard_normal(12)
        cs = sequential_maximization_oracle(DataPanel([u]), DataPanel([v]), restarts=16)
        r = (u @ v) ** 2 / ((u @ u) * (v @ v))
        assert cs.correlations_sq == pytest.approx([r], abs=1e-10)

    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_matches_eigen_route(self, seed):
        U, V = random_panels(seed, 2, 2, 12)
        cs = sequential_maximization_oracle(U, V, restarts=24)
        np.testing.assert_allclose(
            cs.correlations_sq, sample_cca(U, V).correlations_sq, atol=1e-6
        )

    def test_orthogonal_rows_give_zero(self):
        U = DataPanel(np.eye(2, 10))
        V = DataPanel(np.eye(10)[4:7])
        cs = sequential_maximization_oracle(U, V, restarts=16)
        np.testing.assert_allclose(cs.correlations_sq, 0.0, atol=1e-10)

    def test_restart_budget_enforced(self):
        U, V = random_panels(0, 1, 1, 8)
        with pytest.raises(ValueError):
            sequential_maximization_oracle(U, V, restarts=8)

    def test_size_limit(self):
        U, V = random_panels(0, 4, 2, 16)
        with pytest.raises(DimensionMismatch):
            sequential_maximization_oracle(U, V)


class TestThreeRouteEquivalence:
    @given(seed=seeds, K=st.integers(1, 3), M=st.integers(1, 3), S=st.integers(8, 16))
    @settings(max_examples=20, deadline=None)
    def test_all_routes_agree(self, seed, K, M, S):
        U, V = random_panels(seed, K, M, S)
        eig = sample_cca(U, V).correlations_sq
        proj = sample_cca_projector_oracle(U, V).values
        seq = sequential_maximization_oracle(U, V, restarts=24).correlations_sq
        np.testing.assert_allclose(proj, eig, atol=1e-8)
        np.testing.assert_allclose(seq, eig, atol=1e-6)


class TestPopulationCca:
    def test_diagonal_cross_block(self):
        c = np.array([0.9, 0.4])
        luv = np.zeros((2, 3))
        luv[:2, :2] = np.diag(c)
        cs = population_cca(CovarianceTriple(np.eye(2), np.eye(3), luv))
        np.testing.assert_allclose(cs.correlations_sq, c**2, atol=1e-12)
        np.testing.assert_allclose(np.abs(cs.alphas), np.eye(2), atol=1e-10)

    def test_scalar_case_is_squared_correlation_coefficient(self):
        luu, lvv, luv = 2.0, 5.0, -1.5
        cs = population_cca(CovarianceTriple([[luu]], [[lvv]], [[luv]]))
        assert cs.correlations_sq == pytest.approx([luv**2 / (luu * lvv)], abs=1e-14)

    def test_law_of_large_numbers_against_sample_route(self):
        rng = np.random.default_rng(21)
        A = rng.standard_normal((5, 5))
        joint = A @ A.T + 0.5 * np.eye(5)
        cov = CovarianceTriple(joint[:2, :2], joint[2:, 2:], joint[:2, 2:])
        pop = population_cca(cov).correlations_sq
        S = 10**6
        draws = np.linalg.cholesky(joint) @ rng.standard_normal((5, S))
        samp = sample_cca(DataPanel(draws[:2]), DataPanel(draws[2:])).correlations_sq
        np.testing.assert_allclose(samp, pop, atol=0.01)

    def test_gram_blocks_reproduce_the_sample_route_exactly(self):
        U, V = random_panels(22, 3, 5, 20)
        u, v = U.values, V.values
        pop = population_cca(CovarianceTriple(u @ u.T, v @ v.T, u @ v.T))
        samp = sample_cca(U, V)
        np.testing.assert_array_equal(pop.correlations_sq, samp.correlations_sq)
        np.testing.assert_array_equal(pop.alphas, samp.alphas)
        np.testing.assert_array_equal(pop.betas, samp.betas)

    def test_joint_block_must_be_psd(self):
        with pytest.raises(SingularCovariance):
            CovarianceTriple([[1.0]], [[1.0]], [[1.5]])


class TestAlignmentAngle:
    def test_same_vector_gives_zero(self, rng):
        U = DataPanel(rng.standard_normal((3, 10)))
        a = rng.standard_normal(3)
        assert alignment_angle(U, a, a) == pytest.approx(0.0, abs=1e-14)

    def test_scale_and_sign_invariance(self, rng):
        U = DataPanel(rng.standard_normal((3, 10)))
        a = rng.standard_normal(3)
        assert alignment_angle(U, a, -3.0 * a) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_images_give_one(self):
        U = DataPanel(np.eye(2, 6))
        assert alignment_angle(U, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_zero_image_detected(self):
        U = DataPanel([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ZeroImage):
            alignment_angle(U, np.array([1.0, -1.0]), np.array([1.0, 1.0]))


class TestInvariances:
    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_row_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        U, V = random_panels(seed, 3, 4, 20)
        F = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        G = rng.standard_normal((4, 4)) + 3 * np.eye(4)
        base = sample_cca(U, V).correlations_sq
        moved = sample_cca(DataPanel(F @ U.values), DataPanel(G @ V.values)).correlations_sq
        np.testing.assert_allclose(moved, base, atol=1e-8)

    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_orthogonal_ambient_invariance(self, seed):
        rng = np.random.default_rng(seed)
        U, V = random_panels(seed, 2, 3, 12)
        O, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        base = sample_cca(U, V).correlations_sq
        moved = sample_cca(DataPanel(U.values @ O.T), DataPanel(V.values @ O.T)).correlations_sq
        np.testing.assert_allclose(moved, base, atol=1e-8)

    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_argument_swap_symmetry(self, seed):
        U, V = random_panels(seed, 2, 4, 14)
        a = sample_cca(U, V).correlations_sq
        b = sample_cca(V, U).correlations_sq
        np.testing.assert_allclose(b[:2], a, atol=1e-10)
        np.testing.assert_allclose(b[2:], 0.0, atol=1e-10)

    def test_cluster_flags_mark_near_degenerate_pairs(self):
        cs = CanonicalSystem(
            correlations_sq=np.array([0.9, 0.9 - 1e-9, 0.2]),
            alphas=np.eye(3),
            betas=np.eye(3),
        )
        assert cs.clustered.tolist() == [True, True, False]
        with pytest.raises(TypeError):  # always derived, never passed in
            CanonicalSystem(np.array([0.5]), np.eye(1), np.eye(1), np.array([True]))

    @pytest.mark.parametrize("seed", range(20))
    def test_cluster_flags_match_the_pairwise_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 9))
        gaps = rng.choice([0.0, 5e-7, 1e-6, 2e-6, 0.1], size=n)
        c = np.clip(0.95 - np.cumsum(gaps), 0.0, 1.0)
        want = np.zeros(n, dtype=bool)
        for i in range(n - 1):
            if c[i] - c[i + 1] < 1e-6:
                want[i] = want[i + 1] = True
        flags = _cluster_flags(c)
        assert flags.tolist() == want.tolist()
        assert not flags.flags.writeable


def mixed_panels(seed, K, M, S, shared):
    """U spans K orthonormal directions, V spans M others; V's first row
    leans toward U's first direction with correlation `shared` (0 for none).
    Random row mixing keeps the coefficient vectors generic."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((S, S)))
    Q = Q.T
    v_rows = Q[K : K + M].copy()
    v_rows[0] = shared * Q[0] + np.sqrt(1.0 - shared**2) * v_rows[0]
    U = rng.standard_normal((K, K)) @ Q[:K]
    V = rng.standard_normal((M, M)) @ v_rows
    return DataPanel(U), DataPanel(V)


def peak_coordinates(vectors):
    """Largest-magnitude coordinate of each row."""
    return vectors[np.arange(len(vectors)), np.argmax(np.abs(vectors), axis=1)]


class TestCanonicalSigns:
    @pytest.mark.parametrize(
        "K, M, S, shared",
        [(2, 4, 12, 0.6), (2, 3, 8, 0.0), (3, 5, 20, None), (4, 2, 9, 0.8), (1, 6, 10, 0.0)],
        ids=["one-pair-more-v-rows", "all-zero", "generic-more-v-rows", "more-u-rows", "single-zero"],
    )
    def test_docstring_conventions(self, K, M, S, shared):
        if shared is None:
            U, V = random_panels(3, K, M, S)
        else:
            U, V = mixed_panels(11, K, M, S, shared)
        cs = sample_cca(U, V)
        n = min(K, M)
        paired = np.sqrt(cs.correlations_sq) > 1e-8
        if shared is not None:
            assert paired.sum() == (shared > 0)
        # every alpha, paired or not, has a positive largest coordinate
        assert np.all(peak_coordinates(cs.alphas) > 0)
        # paired betas follow their alpha: the cross inner product is +c
        u = U.values.T @ cs.alphas[:n].T
        v = V.values.T @ cs.betas[:n].T
        np.testing.assert_allclose(np.sum(u * v, axis=0)[paired], np.sqrt(cs.correlations_sq)[paired], atol=1e-10)
        # zero-correlation and unpaired betas flip by their own largest coordinate
        unpaired = np.ones(M, dtype=bool)
        unpaired[:n] = ~paired
        assert np.all(peak_coordinates(cs.betas[unpaired]) > 0)


class TestSampleSpectrum:
    @staticmethod
    def badly_scaled():
        U, V = random_panels(0, 3, 2, 50)
        scaled = U.values.copy()
        scaled[0] *= 1e-6
        return DataPanel(scaled), V

    @staticmethod
    def near_unit_top_pair():
        """V's first row is U's first row plus 1e-7 noise, so the top correlation is 1 - O(1e-14)."""
        U, V = random_panels(6, 3, 4, 60)
        rows = V.values.copy()
        rows[0] = U.values[0] + 1e-7 * np.random.default_rng(7).standard_normal(U.cols)
        return U, DataPanel(rows)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_panels(1, 6, 6, 30),
            lambda: random_panels(2, 4, 6, 10),
            lambda: random_panels(3, 2, 3, 500),
            lambda: random_panels(4, 5, 3, 12),
            lambda: random_panels(5, 40, 60, 200),
            lambda: random_panels(6, 100, 150, 500),
            lambda: TestSampleSpectrum.badly_scaled(),
            lambda: TestSampleSpectrum.near_unit_top_pair(),
        ],
        ids=["K=M", "K+M=S", "2x3x500", "K>M", "40x60x200", "100x150x500", "badly-scaled-row", "near-unit-top-pair"],
    )
    def test_matches_the_full_path(self, make):
        U, V = make()
        np.testing.assert_allclose(sample_spectrum(U, V), sample_cca(U, V).correlations_sq, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "U, V, error",
        [
            (DataPanel(np.ones((1, 4))), DataPanel(np.eye(2, 5)), DimensionMismatch),
            (*random_panels(1, 3, 3, 5), TooFewObservations),
            (DataPanel([np.arange(8.0), 2 * np.arange(8.0)]), random_panels(0, 2, 2, 8)[1], RankDeficient),
        ],
        ids=["DimensionMismatch", "TooFewObservations", "RankDeficient"],
    )
    def test_raises_what_the_full_path_raises(self, U, V, error):
        with pytest.raises(error) as full:
            sample_cca(U, V)
        with pytest.raises(error) as short:
            sample_spectrum(U, V)
        assert str(short.value) == str(full.value)


class TestStackedSpectra:
    """The spectrum path takes a leading stack axis and gives each pair the bits of its one-pair call."""

    @pytest.mark.parametrize("K, M, S, n", [(2, 3, 500, 256), (10, 12, 100, 64), (100, 150, 500, 8)])
    def test_a_stack_gives_each_pair_its_bits(self, K, M, S, n):
        # K = 100 > 32 runs _tri_inv's blocked recursion on the stack
        rng = np.random.default_rng(K)
        u, v = rng.standard_normal((n, K, S)), rng.standard_normal((n, M, S))
        pairs = np.array([sample_spectrum(DataPanel(a), DataPanel(b)) for a, b in zip(u, v)])
        stacked = _spectra(u, v)
        assert stacked.shape == (n, min(K, M))
        assert stacked.tobytes() == pairs.tobytes()

    def test_a_far_scaled_item_keeps_every_pair_its_bits(self):
        # one item far from unit scale rescales the stack, each item by its own power of two
        rng = np.random.default_rng(3)
        u, v = rng.standard_normal((6, 2, 40)), rng.standard_normal((6, 3, 40))
        u[4] *= 1e200
        pairs = np.array([sample_spectrum(DataPanel(a), DataPanel(b)) for a, b in zip(u, v)])
        assert _spectra(u, v).tobytes() == pairs.tobytes()

    def test_one_degenerate_item_fails_the_stack(self):
        rng = np.random.default_rng(0)
        u, v = rng.standard_normal((4, 2, 50)), rng.standard_normal((4, 3, 50))
        u[2, 1] = 3.0 * u[2, 0]
        with pytest.raises(RankDeficient, match="U Gram matrix"):
            _spectra(u, v)

    # K = 40 > 32: the one-pair path through _tri_inv's recursion, as float.hex, bit for bit on one build
    PINNED_40x45x200 = (
    "0x1.7dc90b9471f10p-1", "0x1.3e87892b1300ep-1", "0x1.3216ab9bec88bp-1", "0x1.17a8a592d3474p-1",
    "0x1.148cce451a1a4p-1", "0x1.e61a55514fec6p-2", "0x1.e1dc513bab22bp-2", "0x1.b2db994f96e54p-2",
    "0x1.a851432f1950ap-2", "0x1.81536f53c2cf9p-2", "0x1.4ea5a3a4eb97bp-2", "0x1.4d04a1745aadcp-2",
    "0x1.421e1b4e6b3dep-2", "0x1.18959c007d948p-2", "0x1.0320ef7c52b70p-2", "0x1.f4a6c0fe8afb5p-3",
    "0x1.c434fce5bbf87p-3", "0x1.ab6d836863412p-3", "0x1.7f17eaa3dee86p-3", "0x1.756821dd73c2ep-3",
    "0x1.51ece59361f32p-3", "0x1.31d06c0deb3a7p-3", "0x1.0cb45aacfa03ep-3", "0x1.f7c0c21748d56p-4",
    "0x1.b04cde5f0fc10p-4", "0x1.7bac1e50da798p-4", "0x1.586f6415111b9p-4", "0x1.50d3dcd5ad094p-4",
    "0x1.f29556198910cp-5", "0x1.c06277c62f18dp-5", "0x1.6ec03207f84d4p-5", "0x1.310208e2a007dp-5",
    "0x1.ec25f345ad9edp-6", "0x1.85977fa8f3783p-6", "0x1.2cea707f54a1cp-6", "0x1.b5326f0527bdep-7",
    "0x1.21725d34d1c50p-7", "0x1.b9765376efb88p-8", "0x1.fb323c59696afp-9", "0x1.c037da4e2c109p-11",
    )

    def test_pinned_spectrum_through_the_blocked_inverse(self):
        U, V = simulate_spiked_panels(40, 45, 200, [0.5], Seed(11))
        assert tuple(float(x).hex() for x in sample_spectrum(U, V)) == self.PINNED_40x45x200


class TestPanelScale:
    """CCA is invariant under U -> cU; the kernel divides each panel by a power of two before its Gram."""

    @staticmethod
    def panels():
        rng = np.random.default_rng(1)
        return rng.standard_normal((3, 40)), rng.standard_normal((2, 40))

    def test_a_power_of_two_moves_no_bit(self):
        u, v = self.panels()
        tiny, huge = np.finfo(float).tiny, np.finfo(float).max
        assert np.abs(u).min() * 2.0**-1000 >= tiny and np.abs(u).max() * 2.0**1000 < huge  # every 2^k U is normal
        V = DataPanel(v)
        base, spectrum = sample_cca(DataPanel(u), V), sample_spectrum(DataPanel(u), V)
        for k in range(-1000, 1001):
            U = DataPanel(np.ldexp(u, k))
            cs = sample_cca(U, V)
            assert cs.correlations_sq.tobytes() == base.correlations_sq.tobytes(), k
            assert sample_spectrum(U, V).tobytes() == spectrum.tobytes(), k
            assert np.array_equal(cs.alphas, np.ldexp(base.alphas, -k)), k
            assert np.array_equal(cs.betas, base.betas), k

    @pytest.mark.parametrize("c", [1e160, 1e200, 1e-160, 1e-162, 1e-200])
    def test_far_scales_read_the_unscaled_correlations(self, c):
        # unscaled Grams overflow past about 1e154 and leave the normal range below about 1e-154
        u, v = self.panels()
        U, V = DataPanel(u * c), DataPanel(v)
        np.testing.assert_array_max_ulp(sample_spectrum(U, V), sample_spectrum(DataPanel(u), V), maxulp=4)
        cs, base = sample_cca(U, V), sample_cca(DataPanel(u), V)
        np.testing.assert_array_max_ulp(cs.correlations_sq, base.correlations_sq, maxulp=4)
        np.testing.assert_allclose(cs.alphas * c, base.alphas, rtol=1e-12)
        e1 = np.eye(3)[0]
        angle = alignment_angle(DataPanel(u), e1, base.alphas[0])
        assert alignment_angle(U, e1, cs.alphas[0]) == pytest.approx(angle)

    def test_a_subnormal_panel_gives_its_spectrum_but_not_its_vectors(self):
        u, v = self.panels()
        U, V = DataPanel(u * 1e-310), DataPanel(v)
        np.testing.assert_allclose(sample_spectrum(U, V), sample_spectrum(DataPanel(u), V), rtol=1e-12)
        with pytest.raises(RankDeficient, match=r"overflow at panel scales 2\^-1028, 2\^2$"):
            sample_cca(U, V)

    def test_a_nan_row_share_is_rank_deficient(self):
        # an infinite Gram diagonal factors without error and reads share inf / inf
        with np.errstate(invalid="ignore"), pytest.raises(RankDeficient, match="smallest row share nan"):
            _checked_cholesky(np.array([[np.inf, 0.0], [0.0, 1.0]]), 1e-10, "U")
