"""Deterministic canonical correlation analysis.

One whitened-SVD routine serves both the sample version (Cholesky factors
of the panels' Gram matrices) and the population version (Cholesky factors
of the covariance blocks): correlations and vectors are read off a singular
value decomposition of the whitened cross block.  The subspace alignment
angle completes the module.  The two independent oracle routes used to
cross-validate it (projector products and sequential constrained
maximization) live with the tests, in ``tests/oracles.py``.

Conventions, fixed so results are deterministic:

* squared correlations are sorted descending and clipped to [0, 1] inside
  a tolerance band; values further outside raise ``ClippingError``;
* canonical variables have unit norm: ||U^T alpha_i|| = 1;
* <U^T alpha_i, V^T beta_i> >= 0, and when that inner product vanishes the
  largest-magnitude coordinate of the vector is made positive;
* correlations closer than 1e-6 to a neighbour are flagged as clustered;
  the vectors inside a cluster are an arbitrary orthonormal basis of the
  cluster space and should not be compared individually.

The kernel needs numpy alone, like the rest of hdcca: Cholesky factors from
``np.linalg.cholesky`` and their inverses from one blocked triangular
inversion.  Its steps take a leading stack axis, panels (..., K, S), run item
by item by numpy's LAPACK and BLAS calls, so a stack keeps each pair's bits.
CCA is invariant under U -> cU but the Grams are not, so when a Gram diagonal
entry leaves [2^-600, 2^600] each panel (stack item) is divided by 2^e, e the
frexp exponent of its largest |entry|, and its vectors multiplied back by
2^-e: a power of two keeps every rounding.  The kernel runs at numpy's BLAS
thread setting, like the rest of the program.  Checks, clips and transposes on
the per-call path are ndarray methods, attributes and slices, because numpy's
Python wrapper functions dominate a small replicate: on 2-element arrays
``np.any(a) or np.any(b)`` takes 10 us, ``np.tril`` 5, ``np.clip`` and
``np.diff`` 4 and ``np.diag`` 2, their method or slice forms 0.2-2 us (numpy
2.4 on a 2-vCPU x86 host).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ClippingError,
    DimensionMismatch,
    InvalidParams,
    RankDeficient,
    SingularCovariance,
    TooFewObservations,
    ZeroImage,
)

DEFAULT_TOL = 1e-10
CLUSTER_GAP = 1e-6


@dataclass(frozen=True)
class DataPanel:
    """Real data matrix: rows are variables, columns are observations.

    A float64, C-contiguous, read-only ndarray that owns its data is adopted as it is, any other input
    is copied into one, and both are checked."""

    values: np.ndarray

    def __post_init__(self):
        arr = self.values
        if not (isinstance(arr, np.ndarray) and arr.dtype == np.float64 and arr.base is None
                and arr.flags.c_contiguous and not arr.flags.writeable):
            arr = np.array(arr, dtype=float, order="C", copy=True)
        if arr.ndim != 2:
            raise DimensionMismatch(f"panel must be 2-d, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionMismatch(f"panel must be at least 1x1, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise DimensionMismatch("panel entries must all be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class CanonicalSystem:
    """Squared correlations plus the coefficient vectors realizing them.

    ``alphas[i]`` is the i-th K-dimensional coefficient vector for the
    first panel (all K of them form a basis); ``betas[j]`` likewise for
    the second panel (M vectors).  ``correlations_sq`` has length
    min(K, M); pairs beyond that index are unpaired basis completions.
    ``clustered[i]`` marks correlations that sit in a near-degenerate
    cluster, where individual vectors are not identified.
    """

    correlations_sq: np.ndarray
    alphas: np.ndarray
    betas: np.ndarray
    clustered: np.ndarray = field(init=False)

    def __post_init__(self):
        c = np.asarray(self.correlations_sq, dtype=float)
        if (c < -1e-12).any() or (c > 1.0 + 1e-12).any():
            raise ClippingError(f"correlations_sq outside [0,1]: {c}")
        if (c[1:] - c[:-1] > 1e-12).any():
            raise ClippingError("correlations_sq must be sorted descending")
        object.__setattr__(self, "correlations_sq", c.clip(0.0, 1.0))
        object.__setattr__(self, "clustered", _cluster_flags(self.correlations_sq))


@dataclass(frozen=True)
class CovarianceTriple:
    """Population covariance blocks (Luu, Lvv, Luv) of a joint vector."""

    luu: np.ndarray
    lvv: np.ndarray
    luv: np.ndarray

    def __post_init__(self):
        luu = np.array(self.luu, dtype=float, copy=True)
        lvv = np.array(self.lvv, dtype=float, copy=True)
        luv = np.array(self.luv, dtype=float, copy=True)
        K, M = luu.shape[0], lvv.shape[0]
        if luu.shape != (K, K) or lvv.shape != (M, M) or luv.shape != (K, M):
            raise DimensionMismatch(
                f"block shapes inconsistent: {luu.shape}, {lvv.shape}, {luv.shape}"
            )
        for name, block in (("luu", luu), ("lvv", lvv)):
            if not np.allclose(block, block.T, atol=1e-10):
                raise SingularCovariance(f"{name} is not symmetric")
            if np.min(np.linalg.eigvalsh(block)) <= 0.0:
                raise SingularCovariance(f"{name} is not positive-definite")
        joint = np.block([[luu, luv], [luv.T, lvv]])
        w = np.linalg.eigvalsh(joint)
        if np.min(w) < -1e-8 * max(np.max(w), 1.0):
            raise SingularCovariance("joint covariance block is not positive semi-definite")
        for arr in (luu, lvv, luv):
            arr.setflags(write=False)
        object.__setattr__(self, "luu", luu)
        object.__setattr__(self, "lvv", lvv)
        object.__setattr__(self, "luv", luv)


def _cluster_flags(c: np.ndarray) -> np.ndarray:
    gap = c[:-1] - c[1:] < CLUSTER_GAP  # flags both neighbours of each small gap
    flags = np.zeros(len(c), dtype=bool)
    flags[:-1] = gap
    flags[1:] |= gap
    flags.setflags(write=False)
    return flags


def _clip_unit_interval(vals: np.ndarray, tol: float) -> np.ndarray:
    """Clip roundoff excursions; anything outside the band is an error."""
    if (vals < -tol).any() or (vals > 1.0 + tol).any():
        raise ClippingError(
            f"eigenvalues outside [-tol, 1+tol] with tol={tol}: "
            f"min={vals.min()}, max={vals.max()}"
        )
    return vals.clip(0.0, 1.0)


def _checked_cholesky(G: np.ndarray, tol: float, side: str) -> np.ndarray:
    """Lower Cholesky factors L of the stack G; RankDeficient when in some item a row keeps a share L[i, i]^2 /
    G[i, i] <= tol, or NaN, of its squared norm outside the span of the rows before it (no row scaling changes it)."""
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as e:
        raise RankDeficient(f"{side} Gram matrix is not positive definite: {e}") from e
    share = (L.diagonal(0, -2, -1) ** 2 / G.diagonal(0, -2, -1)).min()
    if not share > tol:
        raise RankDeficient(
            f"{side} Gram matrix is rank-deficient within tol={tol} (smallest row share {share:.3e})"
        )
    return L


def _canonical_signs(alphas: np.ndarray, betas: np.ndarray, corr: np.ndarray) -> None:
    """Fix the +/- freedom in place.

    Paired vectors with a positive correlation flip jointly so the
    alpha-side largest-magnitude coordinate is positive (the cross inner
    product stays +c).  Zero-correlation pairs and unpaired completions
    flip independently, each by its own largest coordinate.
    """

    def negative_peak(mat):
        peak = np.argmax(np.abs(mat), axis=0)
        return mat[peak, np.arange(mat.shape[1])] < 0.0

    n_pairs = len(corr)
    flip_a, flip_b = negative_peak(alphas), negative_peak(betas)
    flip_b[:n_pairs] = np.where(corr > 1e-8, flip_a[:n_pairs], flip_b[:n_pairs])
    alphas[:, flip_a] = -alphas[:, flip_a]
    betas[:, flip_b] = -betas[:, flip_b]


_STRICT_UPPER = [np.triu(np.ones((n, n), dtype=bool), 1) for n in range(33)]  # _tri_inv's base case


def _tri_inv(L: np.ndarray) -> np.ndarray:
    """Inverse of the lower-triangular L (or of each item of a stack), exactly lower-triangular itself.

    Blocked by halving, L = [[A, 0], [B, C]] gives L^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]
    with both diagonal blocks inverted recursively (Du Croz & Higham, IMA J. Numer. Anal. 12,
    1992); blocks of at most 32 rows go to np.linalg.inv, their upper part zeroed.
    """
    n = L.shape[-1]
    if n <= 32:
        X = np.linalg.inv(L)
        np.copyto(X, 0.0, where=_STRICT_UPPER[n])
        return X
    h = n // 2
    Ai, Ci = _tri_inv(L[..., :h, :h]), _tri_inv(L[..., h:, h:])
    X = np.zeros_like(L)
    X[..., :h, :h] = Ai
    X[..., h:, h:] = Ci
    X[..., h:, :h] = -(Ci @ (L[..., h:, :h] @ Ai))
    return X


def _whitened_svd(Lu: np.ndarray, Lv: np.ndarray, cross: np.ndarray, eu, ev, clip_tol: float) -> CanonicalSystem:
    """Canonical system from the SVD of Lu^-1 cross Lv^-T, Lu and Lv lower Cholesky factors.

    Squared singular values are clipped with `clip_tol`; the singular
    vectors mapped back through Lu^-T and Lv^-T, times 2^-eu and 2^-ev,
    are the canonical vectors, signs fixed.
    """
    Iu, Iv = _tri_inv(Lu), _tri_inv(Lv)
    A, s, Bt = np.linalg.svd(Iu @ cross @ Iv.T, full_matrices=True)
    corr_sq = _clip_unit_interval(s**2, clip_tol)
    try:
        with np.errstate(over="raise"):  # only a panel near the bottom of the float range overflows its vectors
            alphas = np.ldexp(Iu.T @ A, -eu)
            betas = np.ldexp(Iv.T @ Bt.T, -ev)
    except FloatingPointError:
        raise RankDeficient(f"canonical vectors overflow at panel scales 2^{np.max(eu)}, 2^{np.max(ev)}") from None
    _canonical_signs(alphas, betas, np.sqrt(corr_sq))
    return CanonicalSystem(
        correlations_sq=corr_sq, alphas=alphas.T.copy(), betas=betas.T.copy()
    )


def sample_cca(U: DataPanel, V: DataPanel, tol: float = DEFAULT_TOL) -> CanonicalSystem:
    """Sample canonical correlations and vectors between two data panels.

    Whitens with Cholesky factors of the Gram matrices U U^T and V V^T and
    takes the SVD of the whitened cross-Gram; singular values are the
    sample canonical correlations, and back-substituted singular vectors
    are the canonical vectors.  Requires equal observation counts,
    K + M <= S, and both Gram matrices invertible within ``tol``.
    """
    if not 0.0 <= tol < 1.0:
        raise InvalidParams(f"tol must lie in [0, 1), got {tol}")
    return _whitened_svd(*_sample_factors(U.values, V.values, tol), max(tol, 1e-12))


def _pow2_scaled(x: np.ndarray, axis=(-2, -1)) -> tuple:
    """x / 2^e and e, e the frexp exponent of the largest |entry| of each item (over `axis`); see the module."""
    e = np.frexp(abs(x).max(axis, keepdims=True))[1]
    return np.ldexp(x, -e), e


@np.errstate(over="ignore", invalid="ignore")  # a Gram far from unit scale may overflow; it is then formed again
def _sample_factors(u: np.ndarray, v: np.ndarray, tol: float) -> tuple:
    """Checked Cholesky factors of u u^T and v v^T, cross-Gram u v^T and scale exponents e of the module's rule."""
    (K, S), (M, T) = u.shape[-2:], v.shape[-2:]
    if S != T:
        raise DimensionMismatch(f"observation counts differ: {S} vs {T}")
    if K + M > S:
        raise TooFewObservations(
            f"K + M = {K + M} > S = {S}: {K + M - S} unit correlations are forced"
        )
    Gu, Gv, eu, ev = u @ u.mT, v @ v.mT, 0, 0
    d = Gu.diagonal(0, -2, -1).ravel().tolist() + Gv.diagonal(0, -2, -1).ravel().tolist()
    if not 2.0**-600 < min(d) <= max(d) < 2.0**600:
        (u, eu), (v, ev) = _pow2_scaled(u), _pow2_scaled(v)
        Gu, Gv = u @ u.mT, v @ v.mT
    Lu = _checked_cholesky(Gu, tol, "U")
    Lv = _checked_cholesky(Gv, tol, "V")
    return Lu, Lv, u @ v.mT, eu, ev


def sample_spectrum(U: DataPanel, V: DataPanel) -> np.ndarray:
    """``sample_cca(U, V).correlations_sq`` without the canonical vectors.

    The same checks, factors and whitening, then the eigenvalues of the
    min(K, M)-square Gram matrix of the whitened block C, C C^T or C^T C:
    the squared singular values of C without an SVD, no vector recovery
    and no sign fixing.  For callers that read only the correlations.
    """
    return _spectra(U.values, V.values)


def _spectra(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """:func:`sample_spectrum` of each item of (..., K, S) and (..., M, S) stacks, shape (..., min(K, M))."""
    Lu, Lv, cross = _sample_factors(u, v, DEFAULT_TOL)[:3]
    C = _tri_inv(Lu) @ cross @ _tri_inv(Lv).mT
    G = C @ C.mT if C.shape[-2] <= C.shape[-1] else C.mT @ C
    return _clip_unit_interval(np.linalg.eigvalsh(G)[..., ::-1], DEFAULT_TOL)


def population_cca(cov: CovarianceTriple) -> CanonicalSystem:
    """Population canonical correlations and vectors from covariance blocks.

    Same whitened-SVD route as :func:`sample_cca`, applied to the
    population covariances instead of Gram matrices.
    """
    try:
        Lu = np.linalg.cholesky(cov.luu)
        Lv = np.linalg.cholesky(cov.lvv)
    except np.linalg.LinAlgError as e:  # pragma: no cover - validated upstream
        raise SingularCovariance(str(e)) from e
    return _whitened_svd(Lu, Lv, cov.luv, 0, 0, 1e-10)


def alignment_angle(U: DataPanel, a_ref: np.ndarray, a_hat: np.ndarray) -> float:
    """sin^2 of the angle between U^T a_ref and U^T a_hat.

    Scale- and sign-invariant in both arguments; 0 means the estimated
    canonical variable matches the reference direction exactly, 1 means
    orthogonal.
    """
    u = _pow2_scaled(U.values, None)[0]  # U and each vector over a power of two, so no norm leaves the float range
    images, scale = [], np.linalg.norm(u)
    for name, a in (("a_ref", a_ref), ("a_hat", a_hat)):
        a = np.asarray(a, dtype=float).reshape(-1)
        if a.shape != (U.rows,):
            raise DimensionMismatch(f"coefficient vectors must have length {U.rows}, got {a.shape} for {name}")
        a = _pow2_scaled(a, None)[0]
        images.append(u.T @ a)
        if np.linalg.norm(images[-1]) <= 1e-14 * scale * np.linalg.norm(a):
            raise ZeroImage(f"{name} maps to the zero vector under U^T")
    img_ref, img_hat = images
    cos2 = (img_ref @ img_hat) ** 2 / (np.linalg.norm(img_ref) ** 2 * np.linalg.norm(img_hat) ** 2)
    return float(np.clip(1.0 - cos2, 0.0, 1.0))
