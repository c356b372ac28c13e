"""The Wachter limit distribution for squared sample canonical correlations.

Support endpoints, density, CDF, quantile function, Stieltjes transform
with the asymptotic branch, square-root edge constants, the Tracy-Widom
scale of the upper edge (:func:`edge_scale`, used by every edge-law
statistic) and the Kolmogorov distance between an empirical spectrum and
the limit.  The density has an elementary antiderivative in the edge angle
theta, x = l- + (l+ - l-) sin^2(theta), so the CDF is a closed form of
three arctangents and the quantile function bisects it in theta.

The distribution is parameterized by the dimension ratios
``tau_k = S / K >= tau_m = S / M > 1`` with ``1/tau_k + 1/tau_m < 1`` and
describes the K squared correlations of two independent high-dimensional
Gaussian panels; outside that parameter region it is undefined and the
constructor raises ``InvalidParams``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateLowerEdge, InvalidParams, PoleOrBranchCut


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
        if not np.isfinite(v).all():
            raise InvalidParams("spectrum values must be finite")
        if v.min() < -1e-9 or v.max() > 1.0 + 1e-9:
            raise InvalidParams(f"spectrum values outside [0,1]: [{v.min()}, {v.max()}]")
        if (v[1:] - v[:-1] > 1e-12).any():
            raise InvalidParams("spectrum values must be sorted descending")
        v = v.clip(0.0, 1.0)
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


def _angle_cdf(theta, params: WachterParams):
    """Mass below x = a + (b - a) sin^2(theta), theta in [0, pi/2], a = l-, b = l+.

    In theta the density is (tau_k / pi) (x - a)(b - x) / (x (1 - x)), whose
    partial fractions 1 - ab / x - (1 - a)(1 - b) / (1 - x) each integrate
    to an arctangent.  At tau_k == tau_m, a == 0 and its term vanishes.
    """
    a, b = params.lambda_minus, params.lambda_plus
    s, c = np.sin(theta), np.cos(theta)
    return params.tau_k / np.pi * (
        theta
        - math.sqrt(a * b) * np.arctan2(math.sqrt(b) * s, math.sqrt(a) * c)
        - math.sqrt((1.0 - a) * (1.0 - b)) * np.arctan2(math.sqrt(1.0 - b) * s, math.sqrt(1.0 - a) * c)
    )


def cdf(x, params: WachterParams):
    """Cumulative distribution function, accurate to well below 1e-8."""
    x = np.asarray(x, dtype=float)
    lo, hi = params.lambda_minus, params.lambda_plus
    theta = np.arctan2(np.sqrt(np.maximum(x - lo, 0.0)), np.sqrt(np.maximum(hi - x, 0.0)))
    F = np.clip(_angle_cdf(theta, params), 0.0, 1.0)
    out = np.where(x <= lo, 0.0, np.where(x >= hi, 1.0, F))
    return out if out.ndim else float(out)


def ppf(q, params: WachterParams):
    """Quantile function (inverse of :func:`cdf`) on [0, 1].

    Bisects the edge angle theta on [0, pi/2], the variable the closed form
    is written in.  Levels 0 and 1 map to the edges exactly.
    """
    q = np.asarray(q, dtype=float)
    if not np.all((q >= 0.0) & (q <= 1.0)):
        raise InvalidParams("quantile levels must lie in [0, 1]")
    below_th, above_th = np.zeros_like(q), np.full_like(q, np.pi / 2.0)
    for _ in range(60):
        mid = 0.5 * (below_th + above_th)
        below = _angle_cdf(mid, params) < q
        below_th = np.where(below, mid, below_th)
        above_th = np.where(below, above_th, mid)
    lo, hi = params.lambda_minus, params.lambda_plus
    out = np.where(q == 0.0, lo, np.where(q == 1.0, hi, lo + (hi - lo) * np.sin(above_th) ** 2))
    return out if out.ndim else float(out)


def stieltjes(z, params: WachterParams) -> complex:
    """Stieltjes transform G(z) = int (z - x)^-1 d omega(x), z off the bulk.

    The square root sqrt((z - l-)(z - l+)) takes the branch analytic off
    [l-, l+] and behaving like z at infinity, which is the product of the
    principal square roots sqrt(z - l-) sqrt(z - l+).
    """
    z = complex(z)
    lo, hi = params.lambda_minus, params.lambda_plus
    if abs(z.imag) < 1e-300 and lo - 1e-12 <= z.real <= hi + 1e-12:
        raise PoleOrBranchCut(f"z = {z} lies on the branch cut [{lo}, {hi}]")
    if abs(z) < 1e-12 or abs(z - 1.0) < 1e-12:
        raise PoleOrBranchCut(f"z = {z} is a pole of the transform")
    ik, im = 1.0 / params.tau_k, 1.0 / params.tau_m
    w = np.sqrt(z - lo) * np.sqrt(z - hi)
    return (im + ik - z + w) / (2.0 * ik * z * (z - 1.0)) + 1.0 / z


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


def edge_scale(params: WachterParams, K: int) -> float:
    """K^(2/3) c_plus^(2/3): the inverse Tracy-Widom scale of a K-value spectrum's top at lambda_plus."""
    return K ** (2.0 / 3.0) * upper_edge_constant(params) ** (2.0 / 3.0)


def ks_distance(spec: Spectrum, params: WachterParams) -> float:
    """Kolmogorov sup-distance between the empirical CDF and the limit CDF."""
    xs = np.sort(spec.values)
    n = len(xs)
    F = np.asarray(cdf(xs, params))
    upper = np.max(np.arange(1, n + 1) / n - F)
    lower = np.max(F - np.arange(0, n) / n)
    return float(max(upper, lower))
