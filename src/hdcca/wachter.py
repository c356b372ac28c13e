"""The Wachter limit distribution for squared sample canonical correlations.

Support endpoints, density, CDF (cached quadrature), quantile function,
Stieltjes transform with the asymptotic branch, square-root edge constants,
and the Kolmogorov distance between an empirical spectrum and the limit.

The distribution is parameterized by the dimension ratios
``tau_k = S / K >= tau_m = S / M > 1`` with ``1/tau_k + 1/tau_m < 1`` and
describes the K squared correlations of two independent high-dimensional
Gaussian panels; outside that parameter region it is undefined and the
constructor raises ``InvalidParams``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DegenerateLowerEdge, InvalidParams, PoleOrBranchCut

_GRID_INTERVALS = 4096
_GL_NODES, _GL_WEIGHTS = leggauss(5)


def support_endpoints(tau_k: float, tau_m: float) -> tuple[float, float]:
    """Bulk support [lambda_minus, lambda_plus] from the raw ratio formula.

    Symmetric under tau_k <-> tau_m; both ratios must exceed 1 and their
    inverses must sum below 1.
    """
    if not (np.isfinite(tau_k) and np.isfinite(tau_m)):
        raise InvalidParams(f"ratios must be finite, got ({tau_k}, {tau_m})")
    if tau_k <= 1.0 or tau_m <= 1.0:
        raise InvalidParams(f"both ratios must exceed 1, got ({tau_k}, {tau_m})")
    if 1.0 / tau_k + 1.0 / tau_m >= 1.0:
        raise InvalidParams(
            f"1/tau_k + 1/tau_m must be < 1, got {1.0 / tau_k + 1.0 / tau_m}"
        )
    a = math.sqrt((1.0 - 1.0 / tau_k) / tau_m)
    b = math.sqrt((1.0 - 1.0 / tau_m) / tau_k)
    return (a - b) ** 2, (a + b) ** 2


@dataclass(frozen=True)
class WachterParams:
    """Validated dimension ratios with derived support endpoints."""

    tau_k: float
    tau_m: float
    lambda_minus: float = field(init=False)
    lambda_plus: float = field(init=False)

    def __post_init__(self):
        if self.tau_k < self.tau_m:
            raise InvalidParams(
                f"need tau_k >= tau_m (the law describes the smaller panel), "
                f"got ({self.tau_k}, {self.tau_m})"
            )
        lo, hi = support_endpoints(self.tau_k, self.tau_m)
        object.__setattr__(self, "lambda_minus", lo)
        object.__setattr__(self, "lambda_plus", hi)

    @classmethod
    def from_dimensions(cls, K: int, M: int, S: int) -> "WachterParams":
        """Plug-in ratios S/K, S/M, ordered so the law covers min(K, M)."""
        if K > M:
            K, M = M, K
        return cls(tau_k=S / K, tau_m=S / M)


@dataclass(frozen=True)
class Spectrum:
    """Descending squared correlations with provenance metadata."""

    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.array(self.values, dtype=float, copy=True).reshape(-1)
        if v.size == 0:
            raise InvalidParams("spectrum must be nonempty")
        if np.any(v < -1e-9) or np.any(v > 1.0 + 1e-9):
            raise InvalidParams(f"spectrum values outside [0,1]: [{v.min()}, {v.max()}]")
        if np.any(np.diff(v) > 1e-12):
            raise InvalidParams("spectrum values must be sorted descending")
        v = np.clip(v, 0.0, 1.0)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "meta", dict(self.meta))

    def __len__(self) -> int:
        return len(self.values)


def support(params: WachterParams) -> tuple[float, float]:
    """Endpoints (lambda_minus, lambda_plus) of the bulk."""
    return params.lambda_minus, params.lambda_plus


def pdf(x, params: WachterParams):
    """Density: (tau_k / 2 pi) sqrt((x - l-)(l+ - x)) / (x (1 - x)) on the bulk."""
    x = np.asarray(x, dtype=float)
    lo, hi = params.lambda_minus, params.lambda_plus
    inside = (x >= lo) & (x <= hi)
    out = np.zeros_like(x)
    xs = x[inside]
    out[inside] = (
        params.tau_k
        / (2.0 * np.pi)
        * np.sqrt(np.maximum((xs - lo) * (hi - xs), 0.0))
        / (xs * (1.0 - xs))
    )
    return out if out.ndim else float(out)


class _CdfTable:
    """Cumulative mass on a uniform grid in the edge-resolving angle.

    Substituting x = l- + (l+ - l-) sin^2(theta) removes the square-root
    edge singularity: the transformed integrand is analytic on
    [0, pi/2], so per-interval 5-point Gauss-Legendre is effectively
    exact and the node values carry quadrature error far below 1e-10.
    """

    def __init__(self, params: WachterParams):
        # imported here: scipy.interpolate pulls in scipy.optimize, and no CLI command needs it
        from scipy.interpolate import PchipInterpolator

        lo, hi = params.lambda_minus, params.lambda_plus
        delta = hi - lo
        theta = np.linspace(0.0, np.pi / 2.0, _GRID_INTERVALS + 1)
        h = theta[1] - theta[0]
        mid = 0.5 * (theta[:-1] + theta[1:])
        nodes = mid[:, None] + 0.5 * h * _GL_NODES[None, :]
        x = lo + delta * np.sin(nodes) ** 2
        g = (
            params.tau_k
            / np.pi
            * delta**2
            * (np.sin(nodes) * np.cos(nodes)) ** 2
            / (x * (1.0 - x))
        )
        pieces = 0.5 * h * g @ _GL_WEIGHTS
        cum = np.concatenate([[0.0], np.cumsum(pieces)])
        cum = cum / cum[-1]  # renormalize residual quadrature error (~1e-15)
        self.lo, self.hi, self.delta = lo, hi, delta
        self._interp = PchipInterpolator(theta, cum, extrapolate=False)
        self._inverse = PchipInterpolator(cum, theta, extrapolate=False)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        ratio = np.clip((x - self.lo) / self.delta, 0.0, 1.0)
        th = np.arcsin(np.sqrt(ratio))
        out = self._interp(th)
        out = np.where(x <= self.lo, 0.0, np.where(x >= self.hi, 1.0, out))
        return out

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        th = self._inverse(np.clip(q, 0.0, 1.0))
        return self.lo + self.delta * np.sin(th) ** 2


@lru_cache(maxsize=8)
def _table(params: WachterParams) -> _CdfTable:
    return _CdfTable(params)


def cdf(x, params: WachterParams):
    """Cumulative distribution function, accurate to well below 1e-8."""
    out = _table(params).cdf(x)
    return out if out.ndim else float(out)


def ppf(q, params: WachterParams):
    """Quantile function (inverse of :func:`cdf`) on [0, 1]."""
    q = np.asarray(q, dtype=float)
    if np.any(q < 0.0) or np.any(q > 1.0):
        raise InvalidParams("quantile levels must lie in [0, 1]")
    out = _table(params).ppf(q)
    return out if out.ndim else float(out)


def stieltjes(z, params: WachterParams) -> complex:
    """Stieltjes transform G(z) = int (z - x)^-1 d omega(x), z off the bulk.

    The square root sqrt((z - l-)(z - l+)) takes the continuous branch
    behaving like z at infinity, realized as the product of principal
    square roots and checked (with a sign flip as fallback) against the
    z G(z) -> 1 normalization far out along the ray through z.
    """
    z = complex(z)
    lo, hi = params.lambda_minus, params.lambda_plus
    if abs(z.imag) < 1e-300 and lo - 1e-12 <= z.real <= hi + 1e-12:
        raise PoleOrBranchCut(f"z = {z} lies on the branch cut [{lo}, {hi}]")
    if abs(z) < 1e-12 or abs(z - 1.0) < 1e-12:
        raise PoleOrBranchCut(f"z = {z} is a pole of the transform")
    ik, im = 1.0 / params.tau_k, 1.0 / params.tau_m

    def transform(zz: complex, sign: float) -> complex:
        w = sign * np.sqrt(zz - lo) * np.sqrt(zz - hi)
        return (im + ik - zz + w) / (2.0 * ik * zz * (zz - 1.0)) + 1.0 / zz

    sign = 1.0
    far = 1e8 * z / abs(z)
    if abs(far * transform(far, sign) - 1.0) > 0.5:
        sign = -1.0
    return transform(z, sign)


def edge_constants(params: WachterParams) -> tuple[float, float]:
    """Square-root prefactors (c_minus, c_plus) of the density at the edges.

    Near an edge the density behaves like (c / pi) sqrt(|x - lambda|).
    The lower constant is undefined when tau_k == tau_m (the lower edge
    collapses to 0).
    """
    lo, hi = params.lambda_minus, params.lambda_plus
    if params.tau_k == params.tau_m:
        raise DegenerateLowerEdge("tau_k == tau_m puts the lower edge at 0")
    c_minus = params.tau_k / 2.0 * math.sqrt(hi - lo) / (lo * (1.0 - lo))
    return c_minus, upper_edge_constant(params)


def upper_edge_constant(params: WachterParams) -> float:
    """c_plus alone; defined for every valid parameter pair."""
    lo, hi = params.lambda_minus, params.lambda_plus
    return params.tau_k / 2.0 * math.sqrt(hi - lo) / (hi * (1.0 - hi))


def ks_distance(spec: Spectrum, params: WachterParams) -> float:
    """Kolmogorov sup-distance between the empirical CDF and the limit CDF."""
    xs = np.sort(spec.values)
    n = len(xs)
    F = np.asarray(_table(params).cdf(xs))
    upper = np.max(np.arange(1, n + 1) / n - F)
    lower = np.max(F - np.arange(0, n) / n)
    return float(max(upper, lower))
