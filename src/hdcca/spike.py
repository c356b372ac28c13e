"""Signal-plus-noise inference for high-dimensional CCA.

When a few population canonical correlations are nonzero, the
supercritical ones pull sample correlations out of the bulk to a
predictable outlier location, at a predictable angle to the truth.  This
module provides the detectability threshold, the forward map from signal
strength to outlier location, its closed-form inverse, the limiting
alignment angles and a data-driven estimation pipeline over an observed
spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cca_core import DataPanel
from .ensembles import Seed
from .errors import (
    AboveOne,
    BelowEdge,
    DimensionMismatch,
    InvalidParams,
    ParameterRange,
    Subcritical,
)
from .wachter import Spectrum, WachterParams, edge_scale

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


def _require_supercritical(rho2: float, params: WachterParams) -> None:
    if not rho2 <= 1.0:
        raise ParameterRange(f"rho2 must be <= 1, got {rho2}")
    crit = detection_threshold(params)
    if rho2 <= crit:
        raise Subcritical(f"rho2 = {rho2} <= critical value {crit}: the outlier sticks to the bulk edge")


def z_from_rho2(rho2: float, params: WachterParams) -> float:
    """Limiting outlier location for a supercritical signal of strength rho2.

    z = ((tau_k - 1) rho2 + 1)((tau_m - 1) rho2 + 1) / (rho2 tau_k tau_m);
    always exceeds the upper bulk edge in the supercritical range and
    overestimates rho2 itself for rho2 < 1.
    """
    _require_supercritical(rho2, params)
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
    _require_supercritical(rho2, params)
    tk, tm = params.tau_k, params.tau_m
    denom = (tm - 1.0) * (tk - 1.0) * rho2 - 1.0
    s_u = (1.0 - rho2) * (tk - 1.0) / denom * ((tm - 1.0) * rho2 + 1.0) / ((tk - 1.0) * rho2 + 1.0)
    s_v = (1.0 - rho2) * (tm - 1.0) / denom * ((tk - 1.0) * rho2 + 1.0) / ((tm - 1.0) * rho2 + 1.0)
    return s_u, s_v


def estimate_signals(spec: Spectrum, params: WachterParams) -> SpikeReport:
    """Scan a spectrum for outliers and invert each back to a signal.

    A value counts as a signal when it exceeds
    ``lambda_plus + DEFAULT_EDGE_BUFFER / edge_scale(params, K)``, i.e.
    the buffer is measured on the edge-fluctuation scale; its value 2.0
    keeps the null false-alarm rate around the upper percentiles of the
    edge law.  K comes from the spectrum's provenance metadata.  Inversion
    failures (implied strength above 1) propagate as ``AboveOne``.
    """
    if "K" not in spec.meta:
        raise InvalidParams("spectrum needs provenance metadata with the panel dimension 'K'")
    hi = params.lambda_plus
    threshold = hi + DEFAULT_EDGE_BUFFER / edge_scale(params, int(spec.meta["K"]))
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


def simulate_spiked_panels(
    K: int, M: int, S: int, rho2s, seed: Seed
) -> tuple[DataPanel, DataPanel]:
    """Joint Gaussian panels with planted canonical correlations.

    Identity auto-covariances on both sides and a diagonal cross block
    carrying sqrt(rho2s) on its leading entries, so the population
    canonical vectors are coordinate vectors; the correlation law of any
    other covariance choice is identical.
    """
    if min(K, M, S) < 1:
        raise DimensionMismatch(f"need K, M, S >= 1, got K={K}, M={M}, S={S}")
    rho2s = np.atleast_1d(np.asarray(rho2s, dtype=float))
    if len(rho2s) > min(K, M):
        raise DimensionMismatch(f"at most min(K, M) = {min(K, M)} signals can be planted")
    if not ((rho2s >= 0.0) & (rho2s <= 1.0)).all():
        raise ParameterRange(f"planted squared correlations must lie in [0, 1], got {rho2s.tolist()}")
    rng = seed.generator()
    try:
        U = rng.standard_normal((K, S))
        V = rng.standard_normal((M, S))
    except (MemoryError, ValueError):  # ValueError: a panel past numpy's largest array
        raise InvalidParams(f"panels of K={K}, M={M}, S={S} do not fit in memory") from None
    n = len(rho2s)
    if n:  # no signal planted: V stays as drawn
        V[:n] = np.sqrt(rho2s)[:, None] * U[:n] + np.sqrt(1.0 - rho2s)[:, None] * V[:n]
    U.setflags(write=False)
    V.setflags(write=False)
    return DataPanel(U), DataPanel(V)
