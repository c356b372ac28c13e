"""Output checks that hold for any correct hdcca, not just today's draws.

Nothing here pins an output bit for bit: a sampler that consumes the RNG
differently changes every draw and must still pass.  Spectra are checked
against an independent thin-QR plus SVD reference, tabulated thresholds
against the exact Tracy-Widom F1 quantile within Monte Carlo error, and
rejection rates against binomial bands.
"""

from __future__ import annotations

import math

import numpy as np

ALPHA = 0.95
# Tracy-Widom F1 at 0.95 and its density there, from det(I - K) on
# L^2(s, inf) by 80-node Gauss-Legendre Nystrom (Bornemann, Math. Comp. 79, 2010).
F1_Q95 = 0.97932
F1_PDF_Q95 = 0.0696
# Measured offset of the sim_size = 100 edge table from F1 at 0.95: 10^4
# draws at the default ratios (1.5, 5) read 0.868, Monte Carlo error
# 0.031; the allowance is that bias plus twice that error.
F1_FINITE_SIZE_ALLOWANCE = 0.17
# Slack on the nominal size for the edge and Brownian approximations at
# the benchmark's sizes.  The large-K cointegration test on the CLI's
# default-ratio edge table measured 0.083 over 300 null reps.
SIZE_APPROXIMATION_ALLOWANCE = 0.04
Z = 4.0  # band half-width in standard errors: a correct program fails ~1e-4 of the time


def reference_corr_sq(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Squared canonical correlations by thin QR of U^T and V^T plus an SVD
    (Bjorck and Golub, Math. Comp. 27, 1973); descending, length min(K, M)."""
    qu, _ = np.linalg.qr(U.T)
    qv, _ = np.linalg.qr(V.T)
    s = np.linalg.svd(qu.T @ qv, compute_uv=False)
    return np.clip(s**2, 0.0, 1.0)


def detrended_panels(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Increments and endpoint-detrended lagged levels, both demeaned in time."""
    T = X.shape[1] - 1
    dX = np.diff(X, axis=1)
    lag = X[:, :-1] - np.outer(X[:, T] - X[:, 0], np.arange(T) / T)
    return dX - dX.mean(axis=1, keepdims=True), lag - lag.mean(axis=1, keepdims=True)


def close(a, b, tol=1e-8) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))))


def quantile_se(alpha: float, nsamples: int, density: float) -> float:
    """Monte Carlo standard error of an empirical alpha-quantile."""
    return math.sqrt(alpha * (1.0 - alpha) / nsamples) / density


def f1_threshold_problem(q95: float, nsamples: int) -> str | None:
    """None if an r = 1 edge threshold at 0.95 sits where F1 says it should."""
    allowed = Z * quantile_se(ALPHA, nsamples, F1_PDF_Q95) + F1_FINITE_SIZE_ALLOWANCE
    if abs(q95 - F1_Q95) > allowed:
        return f"r=1 edge threshold {q95:.4f} is {abs(q95 - F1_Q95):.4f} from F1's {F1_Q95} (allowed {allowed:.4f})"
    return None


def size_problem(name: str, rejections: int, reps: int, table_nsamples: int) -> str | None:
    """None if a null rejection rate lies in the binomial band around 1 - alpha,
    widened by the threshold's own Monte Carlo error."""
    p = 1.0 - ALPHA
    band = Z * math.sqrt(p * (1.0 - p) / reps) + Z * math.sqrt(p * (1.0 - p) / table_nsamples)
    band += SIZE_APPROXIMATION_ALLOWANCE
    rate = rejections / reps
    if abs(rate - p) > band:
        return f"{name}: null rejection rate {rate:.4f} over {reps} reps is outside {p} +/- {band:.4f}"
    return None


def median_problem(name: str, values, target: float, tol: float) -> str | None:
    """None if the median of ``values`` lies within ``tol`` of ``target``,
    widened by Z standard errors of a sample median (1.2533 sd / sqrt(n))."""
    values = np.asarray(values, dtype=float)
    med = float(np.median(values))
    allowed = tol + Z * 1.2533 * float(np.std(values, ddof=1)) / math.sqrt(len(values))
    if abs(med - target) > allowed:
        return f"{name}: median {med:.4f} over {len(values)} reps is {abs(med - target):.4f} from {target:.4f} (allowed {allowed:.4f})"
    return None

