"""Signal-plus-noise inference for high-dimensional CCA.

When a few population canonical correlations are nonzero, the
supercritical ones pull sample correlations out of the bulk to a
predictable outlier location, at a predictable angle to the truth.  This
module provides the detectability threshold, the forward map from signal
strength to outlier location, its closed-form inverse, the limiting
alignment angles, a data-driven estimation pipeline over an observed
spectrum, and the exact rank-one update equation used as a finite-size
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cca_core import DataPanel, sample_cca
from .ensembles import Seed
from .errors import (
    AboveOne,
    BelowEdge,
    DimensionMismatch,
    ParameterRange,
    PoleHit,
    Subcritical,
)
from .wachter import Spectrum, WachterParams, stieltjes, upper_edge_constant

DEFAULT_EDGE_BUFFER = 2.0


@dataclass(frozen=True)
class SignalEstimate:
    """Point estimates attached to one detected outlier."""

    lambda_observed: float
    rho2_hat: float
    s_u_hat: float
    s_v_hat: float


@dataclass(frozen=True)
class SpikeReport:
    """Outcome of scanning a spectrum for supercritical signals."""

    n_signals: int
    signals: tuple[SignalEstimate, ...]
    edge_used: float
    threshold_used: float


def detection_threshold(params: WachterParams) -> float:
    """Smallest squared population correlation that separates from the bulk:
    rho^2_crit = 1 / sqrt((tau_m - 1)(tau_k - 1))."""
    return 1.0 / math.sqrt((params.tau_m - 1.0) * (params.tau_k - 1.0))


def z_from_rho2(rho2: float, params: WachterParams) -> float:
    """Limiting outlier location for a supercritical signal of strength rho2.

    z = ((tau_k - 1) rho2 + 1)((tau_m - 1) rho2 + 1) / (rho2 tau_k tau_m);
    always exceeds the upper bulk edge in the supercritical range and
    overestimates rho2 itself for rho2 < 1.
    """
    crit = detection_threshold(params)
    if not rho2 <= 1.0:
        raise ValueError(f"rho2 must be <= 1, got {rho2}")
    if rho2 <= crit:
        raise Subcritical(
            f"rho2 = {rho2} <= critical value {crit}: the outlier sticks to the bulk edge"
        )
    tk, tm = params.tau_k, params.tau_m
    return ((tk - 1.0) * rho2 + 1.0) * ((tm - 1.0) * rho2 + 1.0) / (rho2 * tk * tm)


def rho2_from_z(z: float, params: WachterParams) -> float:
    """Invert an observed outlier location back to the signal strength.

    Closed-form inverse of :func:`z_from_rho2` on z > lambda_plus.  An
    implied strength above 1 means the data is inconsistent with the
    model and raises ``AboveOne`` rather than being clipped.
    """
    lo, hi = params.lambda_minus, params.lambda_plus
    if not z > hi:
        raise BelowEdge(f"z = {z} does not exceed the upper edge {hi}")
    ik, im = 1.0 / params.tau_k, 1.0 / params.tau_m
    root = math.sqrt((z - lo) * (z - hi))
    rho2 = (z - im - ik + 2.0 * im * ik + root) / (2.0 * (1.0 - im) * (1.0 - ik))
    if rho2 > 1.0 + 1e-12:
        raise AboveOne(
            f"z = {z} implies rho2 = {rho2} > 1: inconsistent with the one-signal model"
        )
    return min(rho2, 1.0)


def predicted_angles(rho2: float, params: WachterParams) -> tuple[float, float]:
    """Limiting sin^2 alignment angles (u side, v side) of the top pair.

    Both formulas vanish as rho2 -> 1 and swap into each other under
    tau_k <-> tau_m.
    """
    crit = detection_threshold(params)
    if rho2 <= crit:
        raise Subcritical(f"rho2 = {rho2} <= critical value {crit}")
    if not rho2 <= 1.0:
        raise ValueError(f"rho2 must be <= 1, got {rho2}")
    tk, tm = params.tau_k, params.tau_m
    denom = (tm - 1.0) * (tk - 1.0) * rho2 - 1.0
    s_u = (1.0 - rho2) * (tk - 1.0) / denom * ((tm - 1.0) * rho2 + 1.0) / ((tk - 1.0) * rho2 + 1.0)
    s_v = (1.0 - rho2) * (tm - 1.0) / denom * ((tk - 1.0) * rho2 + 1.0) / ((tm - 1.0) * rho2 + 1.0)
    return s_u, s_v


def estimate_signals(
    spec: Spectrum, params: WachterParams, edge_buffer: float = DEFAULT_EDGE_BUFFER
) -> SpikeReport:
    """Scan a spectrum for outliers and invert each back to a signal.

    A value counts as a signal when it exceeds
    ``lambda_plus + edge_buffer * K^(-2/3) * c_plus^(-2/3)``, i.e. the
    buffer is measured on the edge-fluctuation scale; the default 2.0
    keeps the null false-alarm rate around the upper percentiles of the
    edge law.  K comes from the spectrum's provenance metadata.  Inversion
    failures (implied strength above 1) propagate as ``AboveOne``.
    """
    if "K" not in spec.meta:
        raise ValueError("spectrum needs provenance metadata with the panel dimension 'K'")
    K = int(spec.meta["K"])
    hi = params.lambda_plus
    c_plus = upper_edge_constant(params)
    threshold = hi + edge_buffer * K ** (-2.0 / 3.0) * c_plus ** (-2.0 / 3.0)
    signals = []
    for val in spec.values:
        if val <= threshold:
            break  # descending order: nothing further can exceed it
        rho2 = rho2_from_z(float(val), params)
        s_u, s_v = predicted_angles(rho2, params)
        signals.append(
            SignalEstimate(
                lambda_observed=float(val), rho2_hat=rho2, s_u_hat=s_u, s_v_hat=s_v
            )
        )
    return SpikeReport(
        n_signals=len(signals),
        signals=tuple(signals),
        edge_used=hi,
        threshold_used=threshold,
    )


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
    alpha_hat: np.ndarray | None = None,
    beta_hat: np.ndarray | None = None,
) -> float:
    """Residual of the exact rank-one update equation at a candidate z.

    Given the canonical data of the base pair of subspaces and two
    appended vectors, every squared canonical correlation z of the
    augmented pair span(u*, base-U), span(v*, base-V) satisfies a scalar
    equation built from inner products of u*, v* with the base canonical
    variables.  Returns |LHS - RHS|; exact augmented triplets give
    residuals at roundoff level, so the equation discriminates wrong z
    values sharply.  ``alpha_hat`` / ``beta_hat`` are the triplet's
    coefficient vectors; they are accepted for interface completeness and
    shape-checked, but the equation itself only constrains z.

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
    if alpha_hat is not None and np.asarray(alpha_hat).reshape(-1).shape != (tildeU.rows + 1,):
        raise DimensionMismatch("alpha_hat must have one coefficient per augmented U row")
    if beta_hat is not None and np.asarray(beta_hat).reshape(-1).shape != (tildeV.rows + 1,):
        raise DimensionMismatch("beta_hat must have one coefficient per augmented V row")

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
    num_cross_v = t * (c * p - z * q)       # j-sum of the cross bracket
    num_cross_u = s * (p - c * q)           # i-sum of the cross bracket
    num_bu = t**2 - 2.0 * c * t * s         # u-side bracket, first sum
    num_bu2 = s**2                          # u-side bracket, z-weighted sum
    num_bv = p**2 - 2.0 * c * p * q         # v-side bracket, first sum
    num_bv2 = q**2                          # v-side bracket, z-weighted sum

    tol_num = 1e-10 * (1.0 + nu) * (1.0 + nv) * (1.0 + abs(z))
    bad = np.abs(den) < 1e-12
    if np.any(bad):
        stacked = np.stack([num_cross_v, num_cross_u, num_bu, num_bu2, num_bv, num_bv2])
        if np.max(np.abs(stacked[:, bad])) > tol_num:
            raise PoleHit(
                f"z = {z} coincides with a base squared correlation within 1e-12"
            )
        keep = ~bad
        den, num_cross_v, num_cross_u = den[keep], num_cross_v[keep], num_cross_u[keep]
        num_bu, num_bu2 = num_bu[keep], num_bu2[keep]
        num_bv, num_bv2 = num_bv[keep], num_bv2[keep]

    cross = w + np.sum(num_cross_v / den) - z * np.sum(num_cross_u / den)
    bracket_u = -nu + np.sum(num_bu / den) + z * np.sum(num_bu2 / den)
    bracket_v = -nv + np.sum(num_bv / den) + z * np.sum(num_bv2 / den)
    return float(abs(cross**2 - z * bracket_u * bracket_v))


def simulate_spiked_panels(
    K: int, M: int, S: int, rho2s, seed: Seed
) -> tuple[DataPanel, DataPanel]:
    """Joint Gaussian panels with planted canonical correlations.

    Identity auto-covariances on both sides and a diagonal cross block
    carrying sqrt(rho2s) on its leading entries, so the population
    canonical vectors are coordinate vectors; the correlation law of any
    other covariance choice is identical.
    """
    rho2s = np.atleast_1d(np.asarray(rho2s, dtype=float))
    if len(rho2s) > min(K, M):
        raise DimensionMismatch(f"at most min(K, M) = {min(K, M)} signals can be planted")
    if not np.all((rho2s >= 0.0) & (rho2s <= 1.0)):
        raise ParameterRange(f"planted squared correlations must lie in [0, 1], got {rho2s.tolist()}")
    rng = seed.generator()
    U = rng.standard_normal((K, S))
    V = rng.standard_normal((M, S))
    r = np.sqrt(rho2s)
    n = len(r)
    V[:n] = r[:, None] * U[:n] + np.sqrt(1.0 - rho2s)[:, None] * V[:n]
    return DataPanel(U), DataPanel(V)
