"""Independence tests in both asymptotic regimes, with Monte Carlo
quantile tabulation.

Small dimensions: S times the top squared sample correlation is compared
against tabulated quantiles of the largest eigenvalue of a small Wishart
matrix.  Large dimensions: the top squared correlation is centered at the
bulk edge, rescaled by the K^(2/3) edge constant, and compared against
tabulated quantiles of partial sums of the Airy_1 point process (the
r = 1 marginal is the Tracy-Widom F_1 law), themselves obtained by
rescaling the top eigenvalues of a large simulated MANOVA spectrum.

Tabulation is organized in replicate blocks with per-block generator
streams and a deterministic merge, so results are reproducible for a
fixed seed regardless of scheduling.
"""

from __future__ import annotations

import datetime
import functools
import json
import os
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cca_core import DataPanel, sample_cca
from .ensembles import Seed, laguerre_spectra, manova_spectra
from .errors import InvalidParams, InvalidRegime, TableMismatch
from .wachter import WachterParams, upper_edge_constant

TABLE_FORMAT_VERSION = 1
_AIRY_MAX_R = 10
_SMALL_DIM_WARN = 50

STATISTIC_LAGUERRE_MAX = "LAGUERRE_MAX"
STATISTIC_AIRY1_SUM = "AIRY1_SUM"
STATISTIC_BROWNIAN_COINT = "BROWNIAN_COINT"


@dataclass(frozen=True)
class QuantileTable:
    """Named null statistic with tabulated (alpha, quantile) pairs.

    ``entries`` are sorted by alpha with nondecreasing quantiles; the
    tabulation is pinned by (statistic_id, params, nsamples, seed), which
    also keys the on-disk cache.  Ship tables with nsamples >= 10^4.
    """

    statistic_id: str
    params: dict
    entries: tuple
    nsamples: int
    seed: Seed
    built_at: str | None = None

    def __post_init__(self):
        entries = tuple((float(a), float(q)) for a, q in self.entries)
        alphas = [a for a, _ in entries]
        quants = [q for _, q in entries]
        if not entries:
            raise TableMismatch("table must contain at least one entry")
        if any(not 0.0 < a < 1.0 for a in alphas):
            raise TableMismatch(f"levels must lie in (0, 1): {alphas}")
        if any(a2 <= a1 for a1, a2 in zip(alphas, alphas[1:])):
            raise TableMismatch("entries must be sorted by strictly increasing alpha")
        if any(q2 < q1 for q1, q2 in zip(quants, quants[1:])):
            raise TableMismatch("quantiles must be nondecreasing in alpha")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "params", dict(self.params))

    def threshold_for(self, alpha: float) -> float:
        for a, q in self.entries:
            if abs(a - alpha) < 1e-12:
                return q
        raise TableMismatch(
            f"level {alpha} not tabulated; available: {[a for a, _ in self.entries]}"
        )

    def to_json_dict(self, include_timestamp: bool = True) -> dict:
        doc = {
            "version": TABLE_FORMAT_VERSION,
            "statistic_id": self.statistic_id,
            "params": self.params,
            "seed": {"value": self.seed.value, "stream": self.seed.stream},
            "nsamples": self.nsamples,
            "entries": [{"alpha": a, "q": q} for a, q in self.entries],
        }
        if include_timestamp and self.built_at is not None:
            doc["built_at"] = self.built_at
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "QuantileTable":
        if doc.get("version") != TABLE_FORMAT_VERSION:
            raise TableMismatch(f"unsupported table version {doc.get('version')!r}")
        return cls(
            statistic_id=doc["statistic_id"],
            params=doc["params"],
            entries=tuple((e["alpha"], e["q"]) for e in doc["entries"]),
            nsamples=int(doc["nsamples"]),
            seed=Seed(int(doc["seed"]["value"]), int(doc["seed"]["stream"])),
            built_at=doc.get("built_at"),
        )

    def dumps(self, include_timestamp: bool = True) -> str:
        return json.dumps(self.to_json_dict(include_timestamp), sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "QuantileTable":
        """Parse a table document; malformed input raises TableMismatch."""
        try:
            return cls.from_json_dict(json.loads(text))
        except TableMismatch:
            raise
        except (ValueError, KeyError, TypeError, AttributeError) as e:
            raise TableMismatch(f"malformed quantile table: {type(e).__name__}: {e}") from e

    def save(self, path, include_timestamp: bool = True) -> None:
        """Write atomically, creating the directory: no reader sees a partial table."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(self.dumps(include_timestamp) + "\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path) -> "QuantileTable":
        try:
            return cls.loads(Path(path).read_text())
        except (OSError, TableMismatch) as e:
            raise TableMismatch(f"{path}: {e}") from e


@dataclass(frozen=True)
class TestReport:
    """Decision record: the inequality defining `decision` is exactly the
    one documented by the test that produced the report."""

    statistic_value: float
    threshold: float
    alpha: float
    decision: str  # "reject" | "fail_to_reject"
    regime: str  # "small_dim" | "large_dim"
    diagnostics: dict = field(default_factory=dict)

    @classmethod
    def decide(
        cls, statistic: float, threshold: float, alpha: float, regime: str, rejected: bool, diagnostics: dict
    ) -> "TestReport":
        """Report for a test whose rejection inequality evaluated to `rejected`."""
        decision = "reject" if rejected else "fail_to_reject"
        return cls(statistic, threshold, alpha, decision, regime, diagnostics)

    @property
    def rejected(self) -> bool:
        return self.decision == "reject"

    def to_json_dict(self) -> dict:
        return {
            "statistic": self.statistic_value,
            "threshold": self.threshold,
            "alpha": self.alpha,
            "decision": self.decision,
            "regime": self.regime,
            "diagnostics": self.diagnostics,
        }


def _now() -> str:
    """UTC time in ISO 8601, for table `built_at` and report `timestamp` fields."""
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _empirical_quantiles(samples: np.ndarray, alphas) -> tuple:
    alphas = sorted(float(a) for a in alphas)
    if any(not 0.0 < a < 1.0 for a in alphas):
        raise InvalidParams(f"levels must lie in (0, 1): {alphas}")
    if len(samples) == 0:
        raise InvalidParams("nsamples must be >= 1 to tabulate quantiles")
    qs = np.quantile(np.sort(samples), alphas)
    return tuple(zip(alphas, (float(q) for q in qs)))


def tabulate_laguerre_max(
    K: int, M: int, alphas, nsamples: int, seed: Seed
) -> QuantileTable:
    """Quantiles of the largest eigenvalue of a K x M Wishart matrix.

    This is the null law of S times the top squared sample correlation
    between fixed small panels of K and M >= K variables as S grows.
    """
    if not 1 <= K <= M:
        raise InvalidParams(f"need 1 <= K <= M, got K={K}, M={M}")
    top = laguerre_spectra(K, M, nsamples, seed)[:, -1]
    return QuantileTable(
        statistic_id=STATISTIC_LAGUERRE_MAX,
        params={"K": K, "M": M},
        entries=_empirical_quantiles(top, alphas),
        nsamples=nsamples,
        seed=seed,
        built_at=_now(),
    )


@functools.lru_cache(maxsize=8)
def _airy_partial_sums(
    sim_size: int, nsamples: int, seed: Seed, m_ratio: float, s_ratio: float
) -> np.ndarray:
    """(nsamples, min(10, K)) partial sums of rescaled top MANOVA eigenvalues.

    A MANOVA spectrum at internal dimensions (K, M, S) = sim_size *
    (1, m_ratio, s_ratio) is recentered at its bulk edge and rescaled by
    K^(2/3) c_plus^(2/3); edge universality makes the law of the top
    coordinates insensitive to the ratios, which mainly control the
    finite-size error.  Memoized for the last few simulations, so every r
    shares one; the returned array is read-only because callers share it.
    """
    K = sim_size
    M = int(round(m_ratio * K))
    S = int(round(s_ratio * K))
    L, Q = M, S - M
    params = WachterParams(tau_k=S / K, tau_m=S / M)
    c_plus = upper_edge_constant(params)
    spectra = manova_spectra(K, L, Q, nsamples, seed)
    r_top = min(_AIRY_MAX_R, K)
    top = spectra[:, -r_top:][:, ::-1]
    rescaled = K ** (2.0 / 3.0) * c_plus ** (2.0 / 3.0) * (top - params.lambda_plus)
    sums = np.cumsum(rescaled, axis=1)
    sums.setflags(write=False)
    return sums


def tabulate_airy1_sums(
    r_max: int,
    alphas,
    sim_size: int,
    nsamples: int,
    seed: Seed,
    m_ratio: float = 1.5,
    s_ratio: float = 5.0,
) -> QuantileTable:
    """Quantiles of the sum of the top r_max Airy_1 coordinates.

    No closed form is practical, so the law is tabulated by Monte Carlo
    from a large MANOVA spectrum (see :func:`_airy_partial_sums`); the
    accuracy control is stability of the quantiles in ``sim_size``.
    """
    if not 1 <= r_max <= _AIRY_MAX_R:
        raise InvalidParams(f"r_max must be in 1..{_AIRY_MAX_R}, got {r_max}")
    if sim_size < 100:
        raise InvalidParams(f"sim_size must be >= 100, got {sim_size}")
    sums = _airy_partial_sums(sim_size, nsamples, seed, m_ratio, s_ratio)
    return QuantileTable(
        statistic_id=STATISTIC_AIRY1_SUM,
        params={
            "r": r_max,
            "sim_size": sim_size,
            "m_ratio": m_ratio,
            "s_ratio": s_ratio,
        },
        entries=_empirical_quantiles(sums[:, r_max - 1], alphas),
        nsamples=nsamples,
        seed=seed,
        built_at=_now(),
    )


def _require_statistic(table: QuantileTable, statistic_id: str) -> None:
    if table.statistic_id != statistic_id:
        raise TableMismatch(
            f"table is for {table.statistic_id!r}, test needs {statistic_id!r}"
        )


def independence_test_small(
    U: DataPanel, V: DataPanel, alpha: float, table: QuantileTable
) -> TestReport:
    """Fixed-dimension independence test: reject iff S * c_1^2 > q_alpha.

    The table must be a LAGUERRE_MAX tabulation matching the panel
    dimensions (order-insensitive).
    """
    _require_statistic(table, STATISTIC_LAGUERRE_MAX)
    k, m = sorted((U.rows, V.rows))
    if (table.params.get("K"), table.params.get("M")) != (k, m):
        raise TableMismatch(
            f"table is for (K, M) = ({table.params.get('K')}, {table.params.get('M')}), "
            f"panels have ({k}, {m})"
        )
    S = U.cols
    top = float(sample_cca(U, V).correlations_sq[0])
    statistic = S * top
    threshold = table.threshold_for(alpha)
    return TestReport.decide(
        statistic, threshold, alpha, "small_dim", statistic > threshold,
        {"K": U.rows, "M": V.rows, "S": S, "top_corr_sq": top},
    )


def independence_test_large(
    U: DataPanel, V: DataPanel, alpha: float, table: QuantileTable
) -> TestReport:
    """High-dimensional independence test via the rescaled top correlation.

    The statistic K^(2/3) c_plus^(2/3) (c_1^2 - lambda_plus), with ratios
    estimated by the plug-ins S/K and S/M, is compared against the
    tabulated top-coordinate (r = 1) edge law: reject iff it exceeds
    q_alpha.
    """
    _require_statistic(table, STATISTIC_AIRY1_SUM)
    if table.params.get("r") != 1:
        raise TableMismatch(f"need the r = 1 edge table, got r = {table.params.get('r')}")
    if U.rows > V.rows:
        U, V = V, U
    K, M, S = U.rows, V.rows, U.cols
    if min(K, M) < _SMALL_DIM_WARN:
        warnings.warn(
            f"min(K, M) = {min(K, M)} < {_SMALL_DIM_WARN}: the edge approximation "
            "may be inaccurate; consider the small-dimension test",
            RuntimeWarning,
            stacklevel=2,
        )
    try:
        params = WachterParams(tau_k=S / K, tau_m=S / M)
    except InvalidParams as e:
        raise InvalidRegime(f"plug-in ratios outside the valid region: {e}") from e
    top = float(sample_cca(U, V).correlations_sq[0])
    c_plus = upper_edge_constant(params)
    statistic = K ** (2.0 / 3.0) * c_plus ** (2.0 / 3.0) * (top - params.lambda_plus)
    threshold = table.threshold_for(alpha)
    return TestReport.decide(
        statistic, threshold, alpha, "large_dim", statistic > threshold,
        {"K": K, "M": M, "S": S, "top_corr_sq": top, "lambda_plus": params.lambda_plus, "c_plus": c_plus},
    )
