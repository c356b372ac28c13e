"""Cointegration-rank testing for VAR(1) systems via CCA.

The trace statistic is (T/2) sum log(1 - lambda_i) over the top squared
sample canonical correlations between the increments of the series and
its lagged levels.  Under no cointegration the statistic has a Brownian
functional limit for small fixed K, and for K growing with T a detrended,
demeaned variant has a Wachter bulk with Tracy-Widom/Airy_1 edge
fluctuations, coupled to a Jacobi spectrum of matched parameters.  Both
take one stacked path, :func:`_coint_spectra` then :func:`_log_gap_sums`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cca_core import DataPanel, _spectra
from .ensembles import Seed, _fill_blocks
from .errors import (
    DimensionMismatch,
    InvalidParams,
    InvalidRegime,
    TooFewObservations,
    UnitCorrelation,
)
from .hyptest import STATISTIC_AIRY1_SUM, STATISTIC_BROWNIAN_COINT, QuantileTable, _decide
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
    """Error-correction VAR(1): Delta X_t = Pi X_{t-1} + eps_t, eps ~ N(0, Lambda); factored once, here."""

    pi: np.ndarray
    lam: np.ndarray
    x0: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False, compare=False)
    _alpha: np.ndarray = field(init=False, repr=False, compare=False)
    _beta: np.ndarray = field(init=False, repr=False, compare=False)

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
        if not (np.isfinite(pi).all() and np.isfinite(lam).all() and np.isfinite(x0).all()):
            raise InvalidParams("pi, lam and x0 must all be finite")
        if not np.allclose(lam, lam.T, atol=1e-10):
            raise InvalidParams("noise covariance must be symmetric")
        try:
            chol = np.linalg.cholesky(lam)
        except np.linalg.LinAlgError:
            raise InvalidParams("noise covariance must be positive-definite") from None
        u, sv, vt = np.linalg.svd(pi)  # pi = alpha beta^T of rank r, dropping what one step would round off
        r = int((sv > K * np.finfo(float).eps * sv[0]).sum())
        alpha, beta = u[:, :r] * sv[:r], vt[:r].T
        for name, a in (("pi", pi), ("lam", lam), ("x0", x0), ("_chol", chol), ("_alpha", alpha), ("_beta", beta)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @classmethod
    def pure_random_walk(cls, K: int) -> "VarModel":
        return cls(pi=np.zeros((K, K)), lam=np.eye(K), x0=np.zeros(K))


def _simulate_var1_rng(model: VarModel, T: int, rng: np.random.Generator) -> TimeSeriesPanel:
    K, r = model._alpha.shape
    try:
        X = np.empty((K, T + 1))
    except (MemoryError, ValueError):  # ValueError: a series past numpy's largest array
        raise InvalidParams(f"a series of K={K} variables over T={T} steps does not fit in memory") from None
    X[:, 0] = model.x0
    W = X[:, 1:]
    z = rng.standard_normal((K, T))
    np.matmul(model._chol, z, out=W)
    W.cumsum(axis=1, out=W)
    W += model.x0[:, None]
    if r:  # X_t = W_t + alpha c_t, c_{t+1} = B c_t + beta^T W_t, c_0 = 0: a doubling scan over t
        y, k, P = X[:, :-1].T @ model._beta, 1, np.eye(r) + model._beta.T @ model._alpha
        with np.errstate(over="ignore", invalid="ignore"):
            while k < T:  # y[j] = c_{j+1}; P = B^k, squared only while the next k < T needs it
                y[k:] += y[:-k] @ P.T
                k, P = 2 * k, (P @ P if 2 * k < T else P)
            W += np.matmul(model._alpha, y.T, out=z)
    X.setflags(write=False)
    try:
        return TimeSeriesPanel(X)
    except DimensionMismatch:  # with T >= 2, a fresh (K, T + 1) series fails only on a non-finite entry
        raise InvalidParams(f"the simulated series overflowed: I + pi is explosive over T = {T} steps") from None


def simulate_var1(model: VarModel, T: int, seed: Seed) -> TimeSeriesPanel:
    """Simulate X_0..X_T from the error-correction recursion with Gaussian noise.

    X_t = W_t + alpha c_t: the random walk W_t = x0 + sum_{s<=t} L z_s is one cumulative sum, and for Pi =
    alpha beta^T of rank r the r-vector c_{t+1} = (I + beta^T alpha) c_t + beta^T W_t, c_0 = 0, is a doubling
    scan, log2 T passes.  Cost O(K^2 T + K r T + r^2 T log T), with no loop over time."""
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
    if not math.isfinite(scale):
        raise InvalidParams(f"scale must be finite, got {scale}")
    try:
        if r == 0:
            return np.zeros((K, K))
        G = seed.generator().standard_normal((K, r))
    except (MemoryError, ValueError):  # ValueError: K x K past numpy's largest array
        raise InvalidParams(f"a K x K coefficient matrix with K={K} does not fit in memory") from None
    Q, _ = np.linalg.qr(G)
    pi = scale * Q @ Q.T
    sv = np.linalg.svd(pi, compute_uv=False)
    rank = int(np.sum(sv > 1e-8 * max(sv[0], 1.0)))
    if rank != r:
        raise InvalidParams(f"constructed matrix has numeric rank {rank}, wanted {r}")
    return pi


def _coint_spectra(x: np.ndarray, detrended: bool) -> np.ndarray:
    """Spectra of increments against lagged levels of (..., K, T + 1) stacks; `detrended` as in modified_lambdas."""
    T = x.shape[-1] - 1
    with np.errstate(over="ignore", invalid="ignore"):  # a finite series may overflow here; refused below
        u, v = x[..., 1:] - x[..., :-1], x[..., :-1]
        if detrended:  # v less its endpoint line, spelled (-line) + v so numpy adds into the temporary: same bits
            v = (x[..., 0] - x[..., T])[..., None] * (np.arange(T) / T) + v
            u -= u.mean(-1, keepdims=True)
            v -= v.mean(-1, keepdims=True)
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise DimensionMismatch("the increments or detrended levels of the series overflow the float range")
    return _spectra(u, v)


def johansen_lambdas(X: TimeSeriesPanel) -> Spectrum:
    """Squared sample canonical correlations between increments and lagged levels; needs 2K <= T."""
    return Spectrum(values=_coint_spectra(X.X, False), meta={"K": X.K, "T": X.T})


def _log_gap_sums(lam: np.ndarray, r: int) -> np.ndarray:
    """Sums of log(1 - lambda_i) over the top r of each descending spectrum of a (..., n) stack, 0 <= r <= n."""
    if not 0 <= r <= lam.shape[-1]:
        raise DimensionMismatch(f"rank must satisfy 0 <= r <= {lam.shape[-1]}, got {r}")
    if lam.max() >= 1.0 - 1e-12:
        raise UnitCorrelation(f"top squared correlation {lam[..., 0].max()} is numerically 1; the statistic diverges")
    return np.log1p(-lam[..., :r]).sum(-1)


def trace_statistic(spec: Spectrum, r: int, T: int) -> float:
    """Log likelihood ratio (T/2) sum_{i<=r} log(1 - lambda_i); <= 0."""
    return float(T / 2.0 * _log_gap_sums(spec.values, r))


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


def coint_test_small(X: TimeSeriesPanel, r: int, alpha: float, table: QuantileTable):
    """Fixed-K cointegration test.

    The (negative) trace statistic is compared against minus half the
    tabulated quantile of the Brownian functional sum: reject iff
    statistic < -(1/2) q_alpha, i.e. when the likelihood ratio is large
    and negative.
    """
    statistic = trace_statistic(johansen_lambdas(X), r, X.T)
    return _decide(
        statistic, table.require(STATISTIC_BROWNIAN_COINT, K=X.K, r=r), alpha, -0.5, "small_dim",
        {"K": X.K, "T": X.T, "r": r},
        f"K = {X.K} > {_SMALL_K_WARN}: the fixed-K limit needs K much smaller than T; "
        "consider the large-K test" if X.K > _SMALL_K_WARN else None,
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
    return Spectrum(values=_coint_spectra(X.X, True), meta={"K": K, "T": T, "modified": True})


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


def coint_test_large(X: TimeSeriesPanel, r: int, alpha: float, airy_table: QuantileTable):
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
    log_sum = float(_log_gap_sums(modified_lambdas(X).values, r))
    scale = edge_scale(detrended_law(tau), K)  # K^(-2/3) c2 = -1 / (scale (1 - hi))
    statistic = (r * c1 - log_sum) * (1.0 - hi) * scale
    return _decide(
        statistic, airy_table.require(STATISTIC_AIRY1_SUM, r=r), alpha, 1.0, "large_dim",
        {"K": K, "T": T, "r": r, "c1": c1, "c2": c2, "tau": tau},
        f"T/K = {tau:.2f} is close to the lower validity boundary 2; results may be distorted"
        if tau < _LARGE_RATIO_WARN else None,
    )
