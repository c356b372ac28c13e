"""Cointegration-rank testing for VAR(1) systems via CCA.

The trace statistic is (T/2) sum log(1 - lambda_i) over the top squared
sample canonical correlations between the increments of the series and
its lagged levels.  Under no cointegration the statistic has a Brownian
functional limit for small fixed K, and for K growing with T a detrended,
demeaned variant has a Wachter bulk with Tracy-Widom/Airy_1 edge
fluctuations, coupled to a Jacobi spectrum of matched parameters.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .cca_core import DataPanel, sample_spectrum
from .ensembles import Seed, _fill_blocks, manova_spectra
from .errors import (
    DimensionMismatch,
    InvalidParams,
    InvalidRegime,
    TooFewObservations,
    UnitCorrelation,
)
from .hyptest import STATISTIC_AIRY1_SUM, STATISTIC_BROWNIAN_COINT, QuantileTable, TestReport
from .wachter import Spectrum, WachterParams, edge_scale, upper_edge_constant

_SMALL_K_WARN = 10
_LARGE_RATIO_WARN = 2.5


@dataclass(frozen=True)
class TimeSeriesPanel:
    """K-dimensional series observed at times 0..T; columns are times."""

    X: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "X", DataPanel(self.X).values)
        if self.T < 2:
            raise DimensionMismatch("series needs horizon T >= 2, i.e. at least 3 columns")

    @property
    def K(self) -> int:
        return self.X.shape[0]

    @property
    def T(self) -> int:
        return self.X.shape[1] - 1


@dataclass(frozen=True)
class VarModel:
    """Error-correction VAR(1): Delta X_t = Pi X_{t-1} + eps_t, eps ~ N(0, Lambda)."""

    pi: np.ndarray
    lam: np.ndarray
    x0: np.ndarray

    def __post_init__(self):
        pi = np.array(self.pi, dtype=float, copy=True)
        lam = np.array(self.lam, dtype=float, copy=True)
        x0 = np.array(self.x0, dtype=float, copy=True).reshape(-1)
        K = pi.shape[0]
        if K < 1:
            raise DimensionMismatch(f"need K >= 1 variables, got pi of shape {pi.shape}")
        if pi.shape != (K, K) or lam.shape != (K, K) or x0.shape != (K,):
            raise DimensionMismatch(
                f"inconsistent shapes: pi {pi.shape}, lam {lam.shape}, x0 {x0.shape}"
            )
        if not np.allclose(lam, lam.T, atol=1e-10):
            raise InvalidParams("noise covariance must be symmetric")
        if np.min(np.linalg.eigvalsh(lam)) <= 0.0:
            raise InvalidParams("noise covariance must be positive-definite")
        for a in (pi, lam, x0):
            a.setflags(write=False)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "x0", x0)

    @classmethod
    def pure_random_walk(cls, K: int) -> "VarModel":
        return cls(pi=np.zeros((K, K)), lam=np.eye(K), x0=np.zeros(K))


def _simulate_var1_rng(model: VarModel, T: int, rng: np.random.Generator) -> TimeSeriesPanel:
    K = model.pi.shape[0]
    L = np.linalg.cholesky(model.lam)
    eps = L @ rng.standard_normal((K, T))
    X = np.empty((K, T + 1))
    X[:, 0] = model.x0
    if np.count_nonzero(model.pi) == 0:
        X[:, 1:] = model.x0[:, None] + np.cumsum(eps, axis=1)
    else:
        A = np.eye(K) + model.pi
        for t in range(1, T + 1):
            X[:, t] = A @ X[:, t - 1] + eps[:, t - 1]
    return TimeSeriesPanel(X)


def simulate_var1(model: VarModel, T: int, seed: Seed) -> TimeSeriesPanel:
    """Simulate X_0..X_T from the error-correction recursion with Gaussian noise."""
    if T < 2:
        raise DimensionMismatch(f"horizon must be >= 2, got {T}")
    return _simulate_var1_rng(model, T, seed.generator())


def make_pi_rank_r(K: int, r: int, scale: float, seed: Seed) -> np.ndarray:
    """Random K x K coefficient matrix of exact rank r.

    Built as scale * Q Q^T with Q a random K x r orthonormal frame, so the
    r cointegrating combinations revert with AR coefficient 1 + scale;
    choose scale in (-2, 0) for stationary combinations.
    """
    if not 0 <= r <= K:
        raise DimensionMismatch(f"rank must satisfy 0 <= r <= K, got r={r}, K={K}")
    if r == 0:
        return np.zeros((K, K))
    G = seed.generator().standard_normal((K, r))
    Q, _ = np.linalg.qr(G)
    pi = scale * Q @ Q.T
    sv = np.linalg.svd(pi, compute_uv=False)
    rank = int(np.sum(sv > 1e-8 * max(sv[0], 1.0)))
    if rank != r:
        raise InvalidParams(f"constructed matrix has numeric rank {rank}, wanted {r}")
    return pi


def johansen_lambdas(X: TimeSeriesPanel) -> Spectrum:
    """Squared sample canonical correlations between increments and lagged levels.

    Needs 2K <= T, the kernel's K + M <= S.
    """
    dX = np.diff(X.X, axis=1)
    lag = X.X[:, :-1]
    return Spectrum(values=sample_spectrum(DataPanel(dX), DataPanel(lag)), meta={"K": X.K, "T": X.T})


def _top_log_gaps(spec: Spectrum, r: int) -> np.ndarray:
    """log(1 - lambda_i) for the top r squared correlations, 0 <= r <= len(spec)."""
    if not 0 <= r <= len(spec):
        raise DimensionMismatch(f"rank must satisfy 0 <= r <= {len(spec)}, got {r}")
    if np.any(spec.values >= 1.0 - 1e-12):
        raise UnitCorrelation(f"top squared correlation {spec.values[0]} is numerically 1; the statistic diverges")
    return np.log1p(-spec.values[:r])


def trace_statistic(spec: Spectrum, r: int, T: int) -> float:
    """Log likelihood ratio (T/2) sum_{i<=r} log(1 - lambda_i); <= 0."""
    return float(T / 2.0 * np.sum(_top_log_gaps(spec, r)))


_MODES = 32  # Fourier modes of the Brownian bridge kept by simulate_brownian_null


def _brownian_integrals(rng: np.random.Generator, n: int, K: int) -> tuple[np.ndarray, np.ndarray]:
    """(C, V), each (n, K, K), for n draws of K motions on [0, 1]: C_ij = Ito int B_j dB_i, V = int B B^T.

    B(t) - t xi = a_0/2 + sum_k (a_k cos 2 pi k t + b_k sin 2 pi k t) with xi = B(1), a_k, b_k ~
    N(0, I / (2 pi^2 k^2)), all independent, and a_0 = -2 sum_k a_k (Kloeden, Platen and Wright, Stoch.
    Anal. Appl. 10, 1992).  So h = int(B - t xi) = a_0/2, g = int t (B - t xi) = a_0/4 - sum_k b_k/(2 pi k),
    V = xi xi^T/3 + xi g^T + g xi^T + h h^T + sum_k (a_k a_k^T + b_k b_k^T)/2, C = (xi xi^T - I + D)/2 and
    D = 2 (xi h^T - h xi^T) + 2 pi sum_k k (b_k a_k^T - a_k b_k^T).  Past _MODES the tails of a_0 and g are
    drawn whole (sum_k 1/(2 pi^2 k^2) = 1/12, sum_k 1/(8 pi^4 k^4) = 1/720), V's tail is its mean, so
    E[V] = I/2, and D's tail, uncorrelated with the rest, is a Gaussian of its variance, so E[D_ij^2] = 1
    (after Wiktorsson, Ann. Appl. Probab. 11, 2001; dropped, it biases the top eigenvalue low at K = 5).
    """
    k = np.arange(1.0, _MODES + 1.0)
    var = 1.0 / (2.0 * math.pi**2 * k**2)
    tail = 1.0 / 12.0 - var.sum()
    z = rng.standard_normal((n, 2 * _MODES + 3 + K, K))  # xi, the two tails, a_k, b_k, D's tail
    ab = z[:, 3 : 2 * _MODES + 3] * np.sqrt(np.tile(var, 2))[:, None]
    xi, a, b = z[:, 0], ab[:, :_MODES], ab[:, _MODES:]
    h = -a.sum(axis=1) - math.sqrt(tail) * z[:, 1]
    g = h / 2.0 - np.einsum("nkj,k->nj", b, 0.5 / (math.pi * k)) + math.sqrt(1.0 / 720.0 - var @ var / 2.0) * z[:, 2]
    xx, xg, xh, hh = (x[:, :, None] * y[:, None, :] for x, y in ((xi, xi), (xi, g), (xi, h), (h, h)))
    V = xx / 3.0 + xg + np.swapaxes(xg, 1, 2) + hh + 0.5 * np.swapaxes(ab, 1, 2) @ ab + tail * np.eye(K)
    Q = xh + math.pi * np.swapaxes(b * k[:, None], 1, 2) @ a + math.sqrt(tail / 2.0) * z[:, 2 * _MODES + 3 :]
    return 0.5 * (xx - np.eye(K)) + Q - np.swapaxes(Q, 1, 2), V  # D = 2 (Q - Q^T)


def simulate_brownian_null(K: int, nsamples: int, seed: Seed) -> np.ndarray:
    """Samples of the Brownian functional eigenvalues (nu_1 >= ... >= nu_K).

    nu are the eigenvalues of C V^-1 C^T for the Ito C_ij = int B_j dB_i and V = int B B^T of K
    standard Brownian motions on [0, 1], drawn from _MODES Fourier modes of the Brownian bridge
    (:func:`_brownian_integrals`) at O(_MODES K^2) work a draw.  Returns an (nsamples, K) array,
    rows descending, drawn 256 at a time.
    """

    def blocks(rng: np.random.Generator, sizes: list[int]):
        for b in sizes:
            C, V = _brownian_integrals(rng, b, K)
            M = C @ np.linalg.solve(V, np.swapaxes(C, 1, 2))
            w = np.linalg.eigvalsh(0.5 * (M + np.swapaxes(M, 1, 2)))
            yield w[:, ::-1]

    return _fill_blocks(nsamples, K, 256, seed, blocks)


def tabulate_brownian_coint(
    K: int, r: int, alphas, n_grid, nsamples: int, seed: Seed
) -> QuantileTable:
    """Draws of the sum of the top r Brownian functional eigenvalues, from :func:`simulate_brownian_null`.

    The table's identity is (K, r).  ``alphas`` is unused, as in :func:`hyptest.tabulate_laguerre_max`,
    and so is ``n_grid``, the grid size of an earlier Euler sampler: the series has no grid, and the
    slot stays for callers that pass the later arguments by position.
    """
    if not 1 <= r <= K:
        raise InvalidParams(f"need 1 <= r <= K, got r={r}, K={K}")
    nu = simulate_brownian_null(K, nsamples, seed)
    sums = np.sum(nu[:, :r], axis=1)
    return QuantileTable.from_samples(STATISTIC_BROWNIAN_COINT, {"K": K, "r": r}, sums, seed)


def coint_test_small(
    X: TimeSeriesPanel, r: int, alpha: float, table: QuantileTable
) -> TestReport:
    """Fixed-K cointegration test.

    The (negative) trace statistic is compared against minus half the
    tabulated quantile of the Brownian functional sum: reject iff
    statistic < -(1/2) q_alpha, i.e. when the likelihood ratio is large
    and negative.
    """
    statistic = trace_statistic(johansen_lambdas(X), r, X.T)
    if X.K > _SMALL_K_WARN:
        warnings.warn(
            f"K = {X.K} > {_SMALL_K_WARN}: the fixed-K limit needs K much smaller "
            "than T; consider the large-K test",
            RuntimeWarning,
            stacklevel=2,
        )
    threshold = -0.5 * table.require(STATISTIC_BROWNIAN_COINT, K=X.K, r=r).threshold_for(alpha)
    return TestReport(
        statistic, threshold, alpha, statistic < threshold, "small_dim", {"K": X.K, "T": X.T, "r": r}
    )


def modified_lambdas(X: TimeSeriesPanel) -> Spectrum:
    """Squared correlations of the detrended, demeaned statistic.

    The lagged levels are detrended by the straight line through the
    endpoints, then both panels are demeaned across time.  This removes
    any constant drift in the noise exactly and gives the spectrum a
    pinned bulk law and edge fluctuation theory in the large-K regime.
    """
    K, T = X.K, X.T
    if T <= 2 * K:
        raise TooFewObservations(f"need T > 2K, got K={K}, T={T}")
    dX = np.diff(X.X, axis=1)
    lag = X.X[:, :-1]
    trend = np.arange(T) / T
    detrended = lag - np.outer(X.X[:, T] - X.X[:, 0], trend)
    U = dX - dX.mean(axis=1, keepdims=True)
    V = detrended - detrended.mean(axis=1, keepdims=True)
    return Spectrum(values=sample_spectrum(DataPanel(U), DataPanel(V)), meta={"K": K, "T": T, "modified": True})


def coint_lambda_pm(tau: float) -> tuple[float, float]:
    """Bulk support endpoints of the null modified spectrum at ratio tau = T/K.

    Closed form (sqrt(2 tau) -+ sqrt(tau - 1))^2 / (tau + 1)^2; these are
    exactly the support endpoints of :func:`detrended_law` (tau).
    """
    if not tau > 2.0:
        raise InvalidParams(f"ratio must exceed 2, got {tau}")
    a = math.sqrt(2.0 * tau)
    b = math.sqrt(tau - 1.0)
    return (a - b) ** 2 / (tau + 1.0) ** 2, (a + b) ** 2 / (tau + 1.0) ** 2


def detrended_law(tau: float) -> WachterParams:
    """Wachter law of the null modified spectrum at ratio tau = T/K: ratio pair (1 + tau, (1 + tau) / 2)."""
    return WachterParams(1.0 + tau, (1.0 + tau) / 2.0)


def _large_k_constants(K: int, T: int) -> tuple[float, float, float, float]:
    """Edges (lo, hi), log-gap c1 = log(1 - hi) and edge scale c2 = -c_plus^(-2/3) / (1 - hi)
    of the null modified spectrum's law :func:`detrended_law` (tau), tau = T/K > 2
    (the large-K regime; InvalidRegime otherwise)."""
    if T <= 2 * K:
        raise InvalidRegime(f"need T > 2K, got K={K}, T={T}")
    tau = T / K
    lo, hi = coint_lambda_pm(tau)
    c2 = -upper_edge_constant(detrended_law(tau)) ** (-2.0 / 3.0) / (1.0 - hi)
    return lo, hi, math.log1p(-hi), c2


def coint_test_large(
    X: TimeSeriesPanel, r: int, alpha: float, airy_table: QuantileTable
) -> TestReport:
    """Large-K cointegration test calibrated by the Airy_1 sum law.

    statistic = (sum_{i<=r} log(1 - lambda~_i) - r c1) / (K^(-2/3) c2)
    with c1 the log-gap at the bulk edge and c2 < 0 the edge scale, so
    a cointegration signal (an extra-large lambda~_1) pushes the
    statistic up: reject iff it exceeds the tabulated q_alpha of the sum
    of the top r Airy_1 coordinates.
    """
    K, T = X.K, X.T
    _, hi, c1, c2 = _large_k_constants(K, T)
    tau = T / K
    log_sum = float(np.sum(_top_log_gaps(modified_lambdas(X), r)))
    scale = edge_scale(detrended_law(tau), K)  # K^(-2/3) c2 = -1 / (scale (1 - hi))
    statistic = (r * c1 - log_sum) * (1.0 - hi) * scale
    if tau < _LARGE_RATIO_WARN:
        warnings.warn(
            f"T/K = {tau:.2f} is close to the lower validity boundary 2; "
            "results may be distorted",
            RuntimeWarning,
            stacklevel=2,
        )
    threshold = airy_table.require(STATISTIC_AIRY1_SUM, r=r).threshold_for(alpha)
    return TestReport(
        statistic, threshold, alpha, statistic > threshold, "large_dim",
        {"K": K, "T": T, "r": r, "c1": c1, "c2": c2, "tau": tau},
    )


@dataclass(frozen=True)
class CouplingReport:
    """Comparison of the null modified top correlation against the matched
    Jacobi ensemble top eigenvalue.

    ``ks_distance`` compares the two samples as drawn; ``centered_ks_distance``
    compares them after each is centred on its own mean, i.e. the shape of
    the two laws apart from location.  ``edge_unit`` is the bulk-edge
    fluctuation unit K^(-2/3) c_plus^(-2/3) = K^(-2/3) |c2| (1 - lambda_plus)
    in lambda units, the scale on which the large-K test reads the top
    value.  The coupling is promised only to o(1): at K = 100, T = 1000 the
    two laws have the same shape (centred KS 0.008 at 8000 draws a side)
    but differ by a centring offset of about 0.0023, 0.3 edge units, which
    alone puts the population ``ks_distance`` near 0.10; the offset shrinks
    as K grows at fixed T/K.
    """

    ks_distance: float
    centered_ks_distance: float
    mean_lambda1: float
    mean_x1: float
    lambda_plus: float
    edge_unit: float
    nsamples: int
    diagnostics: dict = field(default_factory=dict)


def _two_sample_ks(a: np.ndarray, b: np.ndarray) -> float:
    allv = np.concatenate([a, b])
    allv.sort(kind="mergesort")
    fa = np.searchsorted(np.sort(a), allv, side="right") / len(a)
    fb = np.searchsorted(np.sort(b), allv, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


def jacobi_coupling_check(K: int, T: int, nsamples: int, seed: Seed) -> CouplingReport:
    """Null modified top correlation versus the matched Jacobi top eigenvalue.

    The matched ensemble has exponent pair (K/2, (T - 2K)/2), realized
    here as a MANOVA matrix with panel widths (2K - 1, T - K - 1).  The
    two laws agree to o(1); the report carries their two-sample
    Kolmogorov distance raw and after centring, their means, the bulk
    edge and the edge fluctuation unit, so the finite-size location
    offset can be read on the scale of the edge law (see CouplingReport).
    """
    _, hi, _, _ = _large_k_constants(K, T)
    model = VarModel.pure_random_walk(K)
    lam1 = np.empty(nsamples)
    for rep in range(nsamples):
        X = _simulate_var1_rng(model, T, seed.block_generator(rep))
        lam1[rep] = modified_lambdas(X).values[0]
    jacobi_seed = Seed(seed.value, seed.stream + 1)
    x1 = manova_spectra(K, 2 * K - 1, T - K - 1, nsamples, jacobi_seed, top=1)[:, -1]
    mean_lambda1, mean_x1 = float(np.mean(lam1)), float(np.mean(x1))
    return CouplingReport(
        ks_distance=_two_sample_ks(lam1, x1),
        centered_ks_distance=_two_sample_ks(lam1 - mean_lambda1, x1 - mean_x1),
        mean_lambda1=mean_lambda1,
        mean_x1=mean_x1,
        lambda_plus=hi,
        edge_unit=1.0 / edge_scale(detrended_law(T / K), K),
        nsamples=nsamples,
        diagnostics={"K": K, "T": T},
    )
