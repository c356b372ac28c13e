"""Slow, independent routes that cross-check the library on small instances.

Two CCA routes check :func:`hdcca.cca_core.sample_cca`: the projector
oracle reads squared correlations off a product of S x S orthogonal
projectors, and the sequential maximization oracle finds each canonical
pair by projected ascent over unit vectors of the two row spaces.  The
dense MANOVA sampler is the law oracle of
:func:`hdcca.ensembles.manova_spectra`: it builds each draw from its
Gaussian definition instead of the bidiagonal Jacobi model.  The Euler
Brownian sampler is the law oracle of
:func:`hdcca.cointegration.simulate_brownian_null`: it integrates each draw
on a grid instead of summing the Fourier series of the Brownian bridge.
The ``csv.writer`` writer is the byte oracle of the CSV savers in
:mod:`hdcca.dataio`, which join reprs by hand.  The per-step loop
:func:`simulate_var1_loop` is the oracle of
:func:`hdcca.cointegration.simulate_var1`, which runs the recursion as a
cumulative sum and a doubling scan, and :func:`modified_panels` keeps the
``np.diff``/``np.outer`` spelling of the panels inside
:func:`hdcca.cointegration.modified_lambdas`.

Three identities of the paper check the library without being part of it.
The Jacobi loop (Dyson-Schwinger) equation, :func:`ds_residual`, checks
:func:`hdcca.ensembles.manova_spectra` at any exponents p, q > 1, next to the
exact Jacobi eigenvalue log-density.  The exact rank-one update equation,
:func:`master_equation_residual`, checks :func:`hdcca.cca_core.sample_cca`
on an outlier appended to a base pair, and the limit outlier equation,
:func:`limit_equation_residual`, checks :func:`hdcca.spike.z_from_rho2` and
its inverse through the Stieltjes transform.  The Jacobi coupling check,
:func:`jacobi_coupling_check`, compares the top value of
:func:`hdcca.cointegration.modified_lambdas` under the null with the top
eigenvalue of the matched Jacobi ensemble.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from math import lgamma
from typing import Callable

import numpy as np
from scipy.linalg import solve_triangular

from hdcca.cca_core import (
    DEFAULT_TOL,
    CanonicalSystem,
    DataPanel,
    _canonical_signs,
    _checked_cholesky,
    _clip_unit_interval,
    sample_cca,
)
from hdcca.cointegration import VarModel, _large_k_constants, _simulate_var1_rng, detrended_law, modified_lambdas
from hdcca.ensembles import Seed, _fill_blocks, manova_spectra
from hdcca.errors import BelowEdge, DimensionMismatch, HdccaError, ParameterRange, TooFewObservations
from hdcca.wachter import Spectrum, WachterParams, edge_scale, stieltjes

_SEQ_MAX_ITER = 2000


class NotConverged(HdccaError):
    """Iterative maximization stalled; retry with more restarts."""


class OutOfSimplex(HdccaError, ValueError):
    """Eigenvalue tuple is not strictly ordered inside (0, 1)."""


class PoleHit(HdccaError):
    """Candidate eigenvalue coincides with a pole of the rank-one equation."""


def sample_cca_projector_oracle(U: DataPanel, V: DataPanel, tol: float = DEFAULT_TOL) -> Spectrum:
    """Squared correlations via the product of orthogonal projectors.

    Builds the S x S projectors onto the row spaces and reads eigenvalues
    off the symmetrized product P_U P_V P_U, whose nonzero spectrum equals
    that of P_U P_V.  Rank-deficient panels raise ``RankDeficient`` as in
    :func:`sample_cca`.
    """
    if U.cols != V.cols:
        raise DimensionMismatch(f"observation counts differ: {U.cols} vs {V.cols}")
    K, M, S = U.rows, V.rows, U.cols
    if K + M > S:
        raise TooFewObservations(f"K + M = {K + M} > S = {S}")
    _checked_cholesky(U.values @ U.values.T, tol, "U")
    _checked_cholesky(V.values @ V.values.T, tol, "V")

    def projector(X: np.ndarray) -> np.ndarray:
        G = X @ X.T
        P = X.T @ np.linalg.solve(G, X)
        return 0.5 * (P + P.T)

    Pu = projector(U.values)
    Pv = projector(V.values)
    prod = Pu @ Pv @ Pu
    w = np.linalg.eigvalsh(0.5 * (prod + prod.T))[::-1]
    vals = _clip_unit_interval(w[: min(K, M)], max(tol, 1e-12))
    return Spectrum(values=vals, meta={"K": K, "M": M, "S": S})


def _project_off(x: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    for b in basis:
        x = x - np.dot(b, x) * b
    return x


def sequential_maximization_oracle(
    U: DataPanel, V: DataPanel, restarts: int = 32
) -> CanonicalSystem:
    """Greedy constrained-maximization oracle for tiny instances (K, M <= 3).

    Maximizes <u, v> over unit vectors of the two row spaces by alternating
    projected ascent with random restarts, deflating past maximizers at
    each step.  Restarts use a fixed internal RNG so the result is
    deterministic.  Agrees with :func:`sample_cca` to ~1e-6 on correlations.
    """
    if U.rows > 3 or V.rows > 3:
        raise DimensionMismatch("maximization oracle only supports K <= 3 and M <= 3")
    if restarts < 16:
        raise ValueError(f"need at least 16 restarts, got {restarts}")
    if U.cols != V.cols:
        raise DimensionMismatch(f"observation counts differ: {U.cols} vs {V.cols}")
    K, M = U.rows, V.rows
    if K + M > U.cols:
        raise TooFewObservations(f"K + M = {K + M} > S = {U.cols}")
    Qu, Ru = np.linalg.qr(U.values.T)
    Qv, Rv = np.linalg.qr(V.values.T)
    W = Qu.T @ Qv  # K x M, entries are inner products of basis vectors

    rng = np.random.default_rng(1729)
    xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    corrs: list[float] = []
    for _ in range(min(K, M)):
        best = None
        for _restart in range(restarts):
            x = _feasible_unit(rng, K, xs)
            y = _feasible_unit(rng, M, ys)
            converged = False
            f_old = -np.inf
            for _it in range(_SEQ_MAX_ITER):
                x_new = _ascend(W @ y, xs, x)
                y_new = _ascend(W.T @ x_new, ys, y)
                f = float(x_new @ W @ y_new)
                if abs(f - f_old) < 1e-15 and (
                    np.linalg.norm(x_new - x) < 1e-12 or abs(f) < 1e-12
                ):
                    x, y = x_new, y_new
                    converged = True
                    break
                x, y, f_old = x_new, y_new, f
            f = float(x @ W @ y)
            if f < 0.0:
                y, f = -y, -f
            if converged and (best is None or f > best[0]):
                best = (f, x, y)
        if best is None:
            raise NotConverged("projected ascent failed to converge in every restart")
        corrs.append(best[0])
        xs.append(best[1])
        ys.append(best[2])

    x_basis = _complete_basis(xs, K)
    y_basis = _complete_basis(ys, M)
    alphas = solve_triangular(Ru, np.column_stack(x_basis))
    betas = solve_triangular(Rv, np.column_stack(y_basis))
    corr = np.array(corrs)
    order = np.argsort(-corr, kind="stable")
    corr = corr[order]
    n = len(corr)
    alphas[:, :n] = alphas[:, order]
    betas[:, :n] = betas[:, order]
    _canonical_signs(alphas, betas, corr)
    return CanonicalSystem(
        correlations_sq=_clip_unit_interval(corr**2, 1e-9),
        alphas=alphas.T.copy(),
        betas=betas.T.copy(),
    )


def _feasible_unit(rng, dim, fixed):
    for _ in range(64):
        x = _project_off(rng.standard_normal(dim), fixed)
        n = np.linalg.norm(x)
        if n > 1e-8:
            return x / n
    raise NotConverged("could not draw a feasible unit vector")


def _ascend(grad, fixed, fallback):
    g = _project_off(grad, fixed)
    n = np.linalg.norm(g)
    if n < 1e-13:
        return fallback  # flat direction: correlation ~ 0, stay feasible
    return g / n


def _complete_basis(vecs: list[np.ndarray], dim: int) -> list[np.ndarray]:
    basis = [v.copy() for v in vecs]
    for e in np.eye(dim):
        if len(basis) == dim:
            break
        w = _project_off(e, basis)
        n = np.linalg.norm(w)
        if n > 1e-8:
            basis.append(w / n)
    return basis


def dense_manova_spectra(K: int, L: int, Q: int, n: int, seed: Seed) -> np.ndarray:
    """Ascending spectra of `n` draws of (A + B)^{-1/2} A (A + B)^{-1/2}, A = ZZ^T, B = YY^T,
    for standard normal Z (K x L) and Y (K x Q), by an eigendecomposition per draw."""
    rng = seed.generator()
    out = np.empty((n, K))
    for i in range(n):
        Z = rng.standard_normal((K, L))
        Y = rng.standard_normal((K, Q))
        A = Z @ Z.T
        w, E = np.linalg.eigh(A + Y @ Y.T)
        R = (E / np.sqrt(w)) @ E.T
        M = R @ A @ R
        out[i] = np.linalg.eigvalsh(0.5 * (M + M.T))
    return out


def euler_brownian_null(K: int, n_grid: int, nsamples: int, seed: Seed) -> np.ndarray:
    """(nsamples, K) Brownian functional eigenvalues, rows descending, from K motions on n_grid steps.

    The stochastic integrals use left-point sums (the Ito convention;
    midpoint rules would converge to a different object) and the quadratic
    functionals use left-point Riemann sums.  Drawn 256 at a time.
    """

    def blocks(rng: np.random.Generator, sizes: list[int]):
        for b in sizes:
            dB = rng.standard_normal((b, K, n_grid)) / np.sqrt(n_grid)
            B = np.cumsum(dB, axis=2)
            Blag = np.concatenate([np.zeros((b, K, 1)), B[:, :, :-1]], axis=2)
            C = dB @ np.swapaxes(Blag, 1, 2)  # C[i,j] = sum_l Blag_j dB_i
            V = Blag @ np.swapaxes(Blag, 1, 2) / n_grid
            M = C @ np.linalg.solve(V, np.swapaxes(C, 1, 2))
            w = np.linalg.eigvalsh(0.5 * (M + np.swapaxes(M, 1, 2)))
            yield w[:, ::-1]

    return _fill_blocks(nsamples, K, 256, seed, blocks)


def simulate_var1_loop(model: VarModel, T: int, seed: Seed) -> np.ndarray:
    """X_0..X_T of the error-correction recursion, one mat-vec X_t = (I + pi) X_{t-1} + eps_t a step,
    from the same draws as :func:`hdcca.cointegration.simulate_var1`."""
    K = model.pi.shape[0]
    eps = np.linalg.cholesky(model.lam) @ seed.generator().standard_normal((K, T))
    A = np.eye(K) + model.pi
    X = np.empty((K, T + 1))
    X[:, 0] = model.x0
    for t in range(1, T + 1):
        X[:, t] = A @ X[:, t - 1] + eps[:, t - 1]
    return X


def modified_panels(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The demeaned increments and the detrended, demeaned lagged levels of a (K, T + 1) series."""
    T = X.shape[1] - 1
    dX = np.diff(X, axis=1)
    detrended = X[:, :-1] - np.outer(X[:, T] - X[:, 0], np.arange(T) / T)
    return dX - dX.mean(axis=1, keepdims=True), detrended - detrended.mean(axis=1, keepdims=True)


def csv_writer_save(path, header: list, rows) -> None:
    """Write a header and rows with ``csv.writer``'s default dialect."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@dataclass(frozen=True)
class JacobiParams:
    """Size and exponents (N; p, q) of the Jacobi eigenvalue ensemble."""

    N: int
    p: float
    q: float

    def __post_init__(self):
        if self.N < 1:
            raise ParameterRange(f"N must be >= 1, got {self.N}")
        if not (self.p > 0 and self.q > 0):
            raise ParameterRange(f"p, q must be > 0, got p={self.p}, q={self.q}")


def jacobi_eigenvalue_logdensity(x: np.ndarray, params: JacobiParams) -> float:
    """Log-density of the Jacobi eigenvalue ensemble at the ordered tuple x.

    Includes the full Selberg normalization, so at N=1 this is the exact
    Beta(p, q) log-density.  Requires 1 > x_1 > ... > x_N > 0 strictly.
    """
    x = np.asarray(x, dtype=float)
    N, p, q = params.N, params.p, params.q
    if x.shape != (N,):
        raise OutOfSimplex(f"expected {N} coordinates, got shape {x.shape}")
    if not (np.all(x > 0.0) and np.all(x < 1.0)):
        raise OutOfSimplex("coordinates must lie strictly inside (0, 1)")
    if N > 1 and not np.all(np.diff(x) < 0.0):
        raise OutOfSimplex("coordinates must be strictly decreasing")

    log_norm = lgamma(N + 1)
    for k in range(N):
        log_norm += (
            lgamma(p + q + (N + k - 1) / 2.0)
            + lgamma(1.5)
            - lgamma(p + k / 2.0)
            - lgamma(q + k / 2.0)
            - lgamma(1.0 + (k + 1) / 2.0)
        )

    interaction = 0.0
    if N > 1:
        diffs = x[:, None] - x[None, :]
        interaction = float(np.sum(np.log(diffs[np.triu_indices(N, k=1)])))
    weight = float(np.sum((p - 1.0) * np.log(x) + (q - 1.0) * np.log1p(-x)))
    return log_norm + interaction + weight


# Fixed, enumerable test-function family for the loop-equation residual:
# ids map to (f, f') pairs, each vectorized over numpy arrays.
DS_TEST_FUNCTIONS: dict[str, tuple[Callable, Callable]] = {
    "const": (lambda x: np.ones_like(x), lambda x: np.zeros_like(x)),
    "x": (lambda x: x, lambda x: np.ones_like(x)),
    "x2": (lambda x: x**2, lambda x: 2.0 * x),
    "x3": (lambda x: x**3, lambda x: 3.0 * x**2),
    "x4": (lambda x: x**4, lambda x: 4.0 * x**3),
    # resolvent at the fixed real point z = 2 (> 1, off the spectrum)
    "inv2": (lambda x: 1.0 / (2.0 - x), lambda x: 1.0 / (2.0 - x) ** 2),
}


def ds_residual(params: JacobiParams, nsamples: int, seed: Seed) -> dict[str, tuple[float, float]]:
    """Monte Carlo residual of the Jacobi loop equation for every test function.

    Returns {f: (estimate, stderr)} over DS_TEST_FUNCTIONS for LHS - RHS of the identity

        E[ mu[f(x)((p-1)/(Kx) + (q-1)/(K(x-1)))]
           + (1/2) (mu x mu)[(f(x)-f(y))/(x-y)] ]  =  -(1/2K) E[ mu[f'] ],

    with mu the empirical measure of a J(K; p, q) spectrum.  Every test
    function reads the same `nsamples` spectra.  A correct implementation
    keeps each estimate within a few stderr of zero.  Requires p > 1 and
    q > 1 (boundary terms invalidate the identity otherwise).
    """
    if not (params.p > 1.0 and params.q > 1.0):
        raise ParameterRange(f"loop equation needs p > 1 and q > 1, got {params}")
    K = params.N
    x = manova_spectra(K, 2.0 * params.p + K - 1.0, 2.0 * params.q + K - 1.0, nsamples, seed)  # ascending
    weight = (params.p - 1.0) / x + (params.q - 1.0) / (x - 1.0)
    dx = x[:, :, None] - x[:, None, :]
    off = dx != 0.0
    idx = np.arange(K)
    out = {}
    for f, (func, dfunc) in DS_TEST_FUNCTIONS.items():
        fx = func(x)
        dfx = dfunc(x)
        # potential term: (1/K^2) sum_k f(x_k) ((p-1)/x_k + (q-1)/(x_k - 1))
        pot = np.sum(fx * weight, axis=1) / K**2
        # pair term: (1/2K^2) sum_{i,k} (f(x_k) - f(x_i)) / (x_k - x_i), f' on the diagonal;
        # where x_k = x_i the difference quotient is left at f(x_k) - f(x_i) = 0
        quot = fx[:, :, None] - fx[:, None, :]
        np.divide(quot, dx, out=quot, where=off)
        quot[:, idx, idx] = dfx
        pair = np.sum(quot, axis=(1, 2)) / (2.0 * K**2)
        # moving the RHS over: residual sample = LHS + (1/2K) mu[f']
        res = pot + pair + np.sum(dfx, axis=1) / (2.0 * K**2)
        out[f] = float(np.mean(res)), float(np.std(res, ddof=1) / np.sqrt(len(res)))
    return out


def limit_equation_residual(z: float, rho2: float, params: WachterParams) -> float:
    """Residual of the asymptotic outlier equation at (z, rho2).

    The equation expresses the signal strength through the Stieltjes
    transform of the bulk law at the outlier location; it vanishes
    exactly on pairs related by :func:`z_from_rho2` /
    :func:`rho2_from_z`.
    """
    if not z > params.lambda_plus:
        raise BelowEdge(f"z = {z} does not exceed the upper edge {params.lambda_plus}")
    ik, im = 1.0 / params.tau_k, 1.0 / params.tau_m
    G = stieltjes(complex(z), params).real
    num1 = 1.0 - 2.0 * ik - (im - ik) / z - (1.0 - z) * ik * G
    num2 = 1.0 - ik - im - (1.0 - z) * ik * G
    den = 1.0 - im - z * ik - z * (1.0 - z) * ik * G
    lhs = z * num1 * num2 / den**2
    return abs(lhs - rho2)


def master_equation_residual(
    tildeU: DataPanel,
    tildeV: DataPanel,
    u_star: np.ndarray,
    v_star: np.ndarray,
    z: float,
) -> float:
    """Residual of the exact rank-one update equation at a candidate z.

    Given the canonical data of the base pair of subspaces and two
    appended vectors, every squared canonical correlation z of the
    augmented pair span(u*, base-U), span(v*, base-V) satisfies a scalar
    equation built from inner products of u*, v* with the base canonical
    variables.  Returns |LHS - RHS|; exact augmented triplets give
    residuals at roundoff level, so the equation discriminates wrong z
    values sharply.

    Raises ``PoleHit`` when z collides with a base squared correlation
    whose coupling to u*, v* is not negligible.
    """
    if tildeU.cols != tildeV.cols:
        raise DimensionMismatch("base panels must share the observation count")
    if tildeU.rows > tildeV.rows:
        raise DimensionMismatch("base U side must not exceed the base V side dimension")
    S = tildeU.cols
    u_star = np.asarray(u_star, dtype=float).reshape(-1)
    v_star = np.asarray(v_star, dtype=float).reshape(-1)
    if u_star.shape != (S,) or v_star.shape != (S,):
        raise DimensionMismatch(f"appended vectors must have length {S}")

    base = sample_cca(tildeU, tildeV)
    Kt, Mt = tildeU.rows, tildeV.rows
    u_vars = tildeU.values.T @ base.alphas.T    # S x Kt canonical variables
    v_vars = tildeV.values.T @ base.betas.T     # S x Mt
    c = np.zeros(Mt)
    c[:Kt] = base.correlations

    s = np.zeros(Mt)
    p = np.zeros(Mt)
    s[:Kt] = u_vars.T @ u_star
    p[:Kt] = u_vars.T @ v_star
    t = v_vars.T @ u_star
    q = v_vars.T @ v_star
    w = float(u_star @ v_star)
    nu = float(u_star @ u_star)
    nv = float(v_star @ v_star)

    den = z - c**2
    num = np.stack([t * (c * p - z * q), s * (p - c * q),  # cross bracket: j-sum, i-sum
                    t**2 - 2.0 * c * t * s, s**2,          # u-side bracket: first, z-weighted sum
                    p**2 - 2.0 * c * p * q, q**2])         # v-side bracket: first, z-weighted sum
    bad = np.abs(den) < 1e-12
    if np.any(bad):
        if np.max(np.abs(num[:, bad])) > 1e-10 * (1.0 + nu) * (1.0 + nv) * (1.0 + abs(z)):
            raise PoleHit(
                f"z = {z} coincides with a base squared correlation within 1e-12"
            )
        num, den = num[:, ~bad], den[~bad]
    cross_v, cross_u, bu, bu2, bv, bv2 = np.sum(num / den, axis=1)
    cross = w + cross_v - z * cross_u
    bracket_u = -nu + bu + z * bu2
    bracket_v = -nv + bv + z * bv2
    return float(abs(cross**2 - z * bracket_u * bracket_v))


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
