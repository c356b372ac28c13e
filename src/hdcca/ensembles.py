"""Seedable samplers for the classical random-matrix ensembles.

Gaussian data panels, Wishart (Laguerre) and MANOVA/Jacobi matrices, the
Laguerre small-dimension scaling limit, the exact Jacobi eigenvalue
log-density, and a Monte Carlo validator for the loop (Dyson-Schwinger)
equation of the Jacobi eigenvalue ensemble.

Randomness is derived from an explicit :class:`Seed`.  A fixed
``(value, stream)`` pair reproduces output bit-for-bit on one build: the
generator is numpy's PCG64 seeded through ``SeedSequence(entropy=value,
spawn_key=(stream,))`` and normal variates use ``standard_normal``
(ziggurat).  Replicated loops draw block ``index`` from
``spawn_key=(stream, index)`` so parallel tabulation over disjoint blocks
stays deterministic under any schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lgamma
from typing import Callable

import numpy as np

from .cca_core import DataPanel
from .errors import DimensionMismatch, OutOfSimplex, ParameterRange

_U64 = 2**64


@dataclass(frozen=True)
class Seed:
    """Explicit RNG state: a 64-bit seed value plus a 64-bit stream index."""

    value: int
    stream: int = 0

    def __post_init__(self):
        if not (0 <= int(self.value) < _U64):
            raise ParameterRange(f"seed value must be a u64, got {self.value}")
        if not (0 <= int(self.stream) < _U64):
            raise ParameterRange(f"seed stream must be a u64, got {self.stream}")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.value, spawn_key=(self.stream,))
        )

    def block_generator(self, index: int) -> np.random.Generator:
        """Generator for replicate block `index`, independent across indices."""
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.value, spawn_key=(self.stream, index))
        )


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


def sample_gaussian_panel(K: int, S: int, seed: Seed) -> DataPanel:
    """K x S panel of independent standard normal entries."""
    if K < 1 or S < 1:
        raise DimensionMismatch(f"panel dimensions must be >= 1, got {K}x{S}")
    return DataPanel(seed.generator().standard_normal((K, S)))


def sample_wishart(K: int, L: int, seed: Seed) -> np.ndarray:
    """Z Z^T for a K x L standard normal Z; requires L >= K."""
    if L < K:
        raise DimensionMismatch(f"Wishart needs L >= K, got K={K}, L={L}")
    Z = seed.generator().standard_normal((K, L))
    return Z @ Z.T


def _inv_sqrt_psd(W: np.ndarray, floor: float = 1e-12) -> np.ndarray:
    """Inverse symmetric square root via eigen-decomposition.

    Eigenvalues are floored at `floor` times the largest one to guard
    against degenerate draws.  Works on stacked (..., K, K) input.
    """
    w, Q = np.linalg.eigh(W)
    wmax = np.max(w, axis=-1, keepdims=True)
    w = np.maximum(w, floor * np.maximum(wmax, 1.0))
    return (Q * (w[..., None, :] ** -0.5)) @ np.swapaxes(Q, -1, -2)


def sample_manova(K: int, L: int, Q: int, seed: Seed) -> np.ndarray:
    """One draw of the MANOVA matrix (ZZ^T + YY^T)^{-1/2} ZZ^T (...)^{-1/2}.

    Z is K x L and Y is K x Q, independent standard normal.  Requires
    K <= L and K <= Q; the result is symmetric with spectrum in (0, 1).
    """
    if K > L or K > Q:
        raise DimensionMismatch(f"MANOVA needs K <= L and K <= Q, got K={K}, L={L}, Q={Q}")
    rng = seed.generator()
    return _manova_from_rng(K, L, Q, rng)


def _manova_from_rng(K: int, L: int, Q: int, rng: np.random.Generator) -> np.ndarray:
    Z = rng.standard_normal((K, L))
    Y = rng.standard_normal((K, Q))
    A = Z @ Z.T
    R = _inv_sqrt_psd(A + Y @ Y.T)
    M = R @ A @ R
    return 0.5 * (M + M.T)


def _auto_block(K: int, width: int, target_floats: int = 4_000_000) -> int:
    return max(1, min(4096, target_floats // max(K * width, 1)))


def manova_spectra(
    K: int, L: int, Q: int, n: int, seed: Seed, block: int | None = None
) -> np.ndarray:
    """Eigenvalues (ascending per row) of `n` independent MANOVA draws.

    Batched helper for Monte Carlo tabulation; one row per draw, computed
    blockwise with stacked matrix operations.  Block size is chosen to
    keep temporaries around 32 MB unless overridden.
    """
    if K > L or K > Q:
        raise DimensionMismatch(f"MANOVA needs K <= L and K <= Q, got K={K}, L={L}, Q={Q}")
    if block is None:
        block = _auto_block(K, L + Q)
    rng = seed.generator()
    out = np.empty((n, K))
    done = 0
    while done < n:
        b = min(block, n - done)
        Z = rng.standard_normal((b, K, L))
        Y = rng.standard_normal((b, K, Q))
        A = Z @ np.swapaxes(Z, -1, -2)
        R = _inv_sqrt_psd(A + Y @ np.swapaxes(Y, -1, -2))
        M = R @ A @ R
        out[done : done + b] = np.linalg.eigvalsh(0.5 * (M + np.swapaxes(M, -1, -2)))
        done += b
    return out


def laguerre_spectra(
    K: int, M: int, n: int, seed: Seed, block: int | None = None
) -> np.ndarray:
    """Eigenvalues (ascending per row) of `n` independent K x M Wishart draws."""
    if M < K:
        raise DimensionMismatch(f"Wishart needs M >= K, got K={K}, M={M}")
    if block is None:
        block = _auto_block(K, M)
    rng = seed.generator()
    out = np.empty((n, K))
    done = 0
    while done < n:
        b = min(block, n - done)
        Z = rng.standard_normal((b, K, M))
        out[done : done + b] = np.linalg.eigvalsh(Z @ np.swapaxes(Z, -1, -2))
        done += b
    return out


def sample_laguerre_limit(K: int, M: int, seed: Seed) -> np.ndarray:
    """Descending eigenvalues of a K x M Wishart matrix.

    This is the limit law of S times the squared sample canonical
    correlations when K and M stay fixed and S grows.
    """
    if M < K:
        raise DimensionMismatch(f"need M >= K, got K={K}, M={M}")
    w = np.linalg.eigvalsh(sample_wishart(K, M, seed))
    return w[::-1].copy()


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


def _manova_sizes(params: JacobiParams) -> tuple[int, int]:
    """Panel widths (L, Q) realizing J(N; p, q) as a MANOVA matrix.

    p = (L - N + 1)/2 and q = (Q - N + 1)/2 must solve to integers >= N;
    the Monte Carlo route cannot reach other parameter values.
    """
    L = 2.0 * params.p + params.N - 1.0
    Q = 2.0 * params.q + params.N - 1.0
    if abs(L - round(L)) > 1e-9 or abs(Q - round(Q)) > 1e-9:
        raise ParameterRange(
            f"(2p+N-1, 2q+N-1) = ({L}, {Q}) must be integers to sample via MANOVA"
        )
    L, Q = int(round(L)), int(round(Q))
    if L < params.N or Q < params.N:
        raise ParameterRange(f"implied panel widths ({L}, {Q}) below N={params.N}")
    return L, Q


@lru_cache(maxsize=8)
def _ds_spectra(params: JacobiParams, nsamples: int, seed: Seed) -> np.ndarray:
    """Memoized spectra shared by every test function; read-only for that reason."""
    L, Q = _manova_sizes(params)
    spectra = manova_spectra(params.N, L, Q, nsamples, seed)
    spectra.setflags(write=False)
    return spectra


def ds_residual(
    params: JacobiParams, f: str, nsamples: int, seed: Seed
) -> tuple[float, float]:
    """Monte Carlo residual of the Jacobi loop equation for test function `f`.

    Returns (estimate, stderr) for LHS - RHS of the identity

        E[ mu[f(x)((p-1)/(Kx) + (q-1)/(K(x-1)))]
           + (1/2) (mu x mu)[(f(x)-f(y))/(x-y)] ]  =  -(1/2K) E[ mu[f'] ],

    with mu the empirical measure of a J(K; p, q) spectrum.  A correct
    implementation keeps the estimate within a few stderr of zero.
    Requires p > 1 and q > 1 (boundary terms invalidate the identity
    otherwise) and `f` drawn from DS_TEST_FUNCTIONS.
    """
    if not (params.p > 1.0 and params.q > 1.0):
        raise ParameterRange(f"loop equation needs p > 1 and q > 1, got {params}")
    if f not in DS_TEST_FUNCTIONS:
        raise ParameterRange(f"unknown test function {f!r}; choose from {sorted(DS_TEST_FUNCTIONS)}")
    func, dfunc = DS_TEST_FUNCTIONS[f]
    K = params.N
    x = _ds_spectra(params, nsamples, seed)  # (n, K), ascending

    fx = func(x)
    dfx = dfunc(x)
    # potential term: (1/K^2) sum_k f(x_k) ((p-1)/x_k + (q-1)/(x_k - 1))
    pot = np.sum(fx * ((params.p - 1.0) / x + (params.q - 1.0) / (x - 1.0)), axis=1) / K**2
    # pair term: (1/2K^2) sum_{i,k} (f(x_k) - f(x_i)) / (x_k - x_i), f' on the diagonal
    dx = x[:, :, None] - x[:, None, :]
    df = fx[:, :, None] - fx[:, None, :]
    quot = np.divide(df, dx, out=np.zeros_like(df), where=dx != 0.0)
    idx = np.arange(K)
    quot[:, idx, idx] = dfx
    pair = np.sum(quot, axis=(1, 2)) / (2.0 * K**2)
    # moving the RHS over: residual sample = LHS + (1/2K) mu[f']
    res = pot + pair + np.sum(dfx, axis=1) / (2.0 * K**2)

    est = float(np.mean(res))
    stderr = float(np.std(res, ddof=1) / np.sqrt(len(res)))
    return est, stderr
