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
:mod:`hdcca.dataio`, which join reprs by hand.
"""

from __future__ import annotations

import csv

import numpy as np
from scipy.linalg import solve_triangular

from hdcca.cca_core import (
    DEFAULT_TOL,
    CanonicalSystem,
    DataPanel,
    _canonical_signs,
    _checked_cholesky,
    _clip_unit_interval,
)
from hdcca.ensembles import Seed, _fill_blocks
from hdcca.errors import DimensionMismatch, HdccaError, TooFewObservations
from hdcca.wachter import Spectrum

_SEQ_MAX_ITER = 2000


class NotConverged(HdccaError):
    """Iterative maximization stalled; retry with more restarts."""


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


def csv_writer_save(path, header: list, rows) -> None:
    """Write a header and rows with ``csv.writer``'s default dialect."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
