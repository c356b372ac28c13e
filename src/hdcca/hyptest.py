"""Independence tests in both asymptotic regimes, with Monte Carlo
quantile tabulation.

Small dimensions: S times the top squared sample correlation is compared
against tabulated quantiles of the largest eigenvalue of a small Wishart
matrix.  Large dimensions: the top squared correlation is centered at the
bulk edge, rescaled by the K^(2/3) edge constant, and compared against
tabulated quantiles of partial sums of the Airy_1 point process (the
r = 1 marginal is the Tracy-Widom F_1 law), themselves obtained by
rescaling the top r eigenvalues of a large simulated MANOVA spectrum.
Each table simulates and bisects only the r eigenvalues it sums.
Every test, here and in :mod:`hdcca.cointegration`, decides by :func:`_decide`:
threshold = scale * q_alpha, rejected iff the statistic lies strictly above
it (scale 1) or strictly below it (scale -1/2, the small-K cointegration test),
and issues the test's regime warning, if any, once the table is in hand.

Tabulation draws its samples block by block from the one generator of its
seed, so a fixed seed reproduces every table bit for bit.
"""

from __future__ import annotations

import datetime
import json
import math
import operator
import os
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cca_core import DataPanel, sample_spectrum
from .ensembles import Seed, laguerre_spectra, manova_spectra
from .errors import InvalidParams, InvalidRegime, TableMismatch
from .wachter import WachterParams, edge_scale, upper_edge_constant

TABLE_FORMAT_VERSION = 2
_SMALL_DIM_WARN = 50

STATISTIC_LAGUERRE_MAX = "LAGUERRE_MAX"
STATISTIC_AIRY1_SUM = "AIRY1_SUM"
STATISTIC_BROWNIAN_COINT = "BROWNIAN_COINT"


@dataclass(frozen=True)
class QuantileTable:
    """Named null statistic with its Monte Carlo draws, sorted ascending.

    One table serves every level: ``threshold_for(alpha)`` reads the
    alpha-quantile off the draws.  The tabulation is pinned by
    (statistic_id, params, nsamples = len(draws), seed), which also keys
    the on-disk cache.  Ship tables with nsamples >= 10^4.  A table whose
    ``built_at`` is None is written without that field.
    """

    statistic_id: str
    params: dict
    draws: tuple = field(repr=False)
    seed: Seed
    built_at: str | None = None

    def __post_init__(self):
        draws = tuple(map(float, self.draws))
        if not draws:
            raise TableMismatch("table must contain at least one draw")
        if not all(map(math.isfinite, draws)):
            raise TableMismatch("draws must all be finite")
        if any(map(operator.gt, draws, draws[1:])):
            raise TableMismatch("draws must be sorted ascending")
        object.__setattr__(self, "draws", draws)
        object.__setattr__(self, "params", dict(self.params))

    @classmethod
    def from_samples(cls, statistic_id: str, params: dict, samples, seed: Seed) -> "QuantileTable":
        """Table of the Monte Carlo `samples`, stamped now."""
        return cls(statistic_id, params, np.sort(samples).tolist(), seed, _now())

    def threshold_for(self, alpha: float) -> float:
        """``np.quantile(draws, alpha)`` bit for bit, read in O(1) off the sorted draws.

        numpy's default (linear) method: index (n - 1) alpha, then its two-sided lerp.
        """
        check_level(alpha)
        x, at = self.draws, (len(self.draws) - 1) * alpha
        i = math.floor(at)
        if i >= len(x) - 1:
            return x[-1]
        t, diff = at - i, x[i + 1] - x[i]
        return x[i] + diff * t if t < 0.5 else x[i + 1] - diff * (1 - t)

    def require(self, statistic_id: str, **params) -> "QuantileTable":
        """Return this table; raise TableMismatch unless it is a `statistic_id` table with these `params`.

        Each test calls this once its input has passed; the CLI hands the tests
        a store with the same method, which reads or builds the table.
        """
        found = (self.statistic_id, {k: self.params.get(k) for k in params})
        if found != (statistic_id, params):
            raise TableMismatch(f"table is {found}, test needs {(statistic_id, params)}")
        return self

    def dumps(self) -> str:
        doc = {
            "version": TABLE_FORMAT_VERSION,
            "statistic_id": self.statistic_id,
            "params": self.params,
            "seed": {"value": self.seed.value, "stream": self.seed.stream},
            "draws": self.draws,
        }
        if self.built_at is not None:
            doc["built_at"] = self.built_at
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "QuantileTable":
        """Parse a table document; malformed input raises TableMismatch."""
        try:
            doc = json.loads(text)
            if doc.get("version") != TABLE_FORMAT_VERSION:
                raise TableMismatch(f"unsupported table version {doc.get('version')!r}")
            if not all(type(d) in (int, float) for d in doc["draws"]):
                raise TableMismatch("draws must be a list of numbers")
            return cls(
                statistic_id=doc["statistic_id"],
                params=doc["params"],
                draws=doc["draws"],
                seed=Seed(int(doc["seed"]["value"]), int(doc["seed"]["stream"])),
                built_at=doc.get("built_at"),
            )
        except TableMismatch:
            raise
        except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as e:
            raise TableMismatch(f"malformed quantile table: {type(e).__name__}: {e}") from e

    def save(self, path) -> None:
        """Write atomically, creating the directory: no reader sees a partial table."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(self.dumps() + "\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path) -> "QuantileTable":
        try:
            return cls.loads(Path(path).read_text())
        except (OSError, UnicodeDecodeError, TableMismatch) as e:
            raise TableMismatch(f"{path}: {e}") from e


@dataclass(frozen=True)
class TestReport:
    """Decision record of :func:`_decide`: threshold = scale * q_alpha; `rejected` is statistic > threshold
    for scale > 0, statistic < threshold for scale < 0; `decision` spells it "reject" or "fail_to_reject"."""

    statistic_value: float
    threshold: float
    alpha: float
    rejected: bool
    regime: str  # "small_dim" | "large_dim"
    diagnostics: dict = field(default_factory=dict)

    @property
    def decision(self) -> str:
        return "reject" if self.rejected else "fail_to_reject"

    def to_json_dict(self) -> dict:
        return {
            "statistic": self.statistic_value,
            "threshold": self.threshold,
            "alpha": self.alpha,
            "decision": self.decision,
            "regime": self.regime,
            "diagnostics": self.diagnostics,
        }


def check_level(alpha: float) -> None:
    """Raise InvalidParams unless the test level lies in (0, 1); NaN fails too."""
    if not 0.0 < alpha < 1.0:
        raise InvalidParams(f"alpha must lie in (0, 1), got {alpha}")


def check_test_level(alpha: float) -> None:
    """Raise InvalidParams unless a test's level, its confidence level 1 - size, lies in (1/2, 1)."""
    check_level(alpha)
    if alpha <= 0.5:
        raise InvalidParams(f"alpha is the confidence level 1 - size, got {alpha}")


def _decide(
    statistic: float, table: QuantileTable, alpha: float, scale: float, regime: str, diagnostics: dict,
    warning: str | None,
) -> TestReport:
    """Every test's decision (see :class:`TestReport`); its scale, 1 or -1/2, keeps q_alpha's bits.
    The test's regime `warning`, or None, is a RuntimeWarning at the test's caller once the table is read."""
    check_test_level(alpha)
    threshold = scale * table.threshold_for(alpha)
    if warning is not None:
        warnings.warn(warning, RuntimeWarning, stacklevel=3)
    rejected = statistic > threshold if scale > 0 else statistic < threshold
    return TestReport(statistic, threshold, alpha, rejected, regime, diagnostics)


def _now() -> str:
    """UTC time in ISO 8601, for table `built_at` and report `timestamp` fields."""
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def tabulate_laguerre_max(
    K: int, M: int, alphas, nsamples: int, seed: Seed
) -> QuantileTable:
    """Draws of the largest eigenvalue of a K x M Wishart matrix.

    This is the null law of S times the top squared sample correlation
    between fixed small panels of K and M >= K variables as S grows.
    ``alphas`` is unused (the table serves every level); the slot stays
    for callers that pass the later arguments by position.
    """
    if not 1 <= K <= M:
        raise InvalidParams(f"need 1 <= K <= M, got K={K}, M={M}")
    top = laguerre_spectra(K, M, nsamples, seed)[:, -1]
    return QuantileTable.from_samples(STATISTIC_LAGUERRE_MAX, {"K": K, "M": M}, top, seed)


def tabulate_airy1_sums(
    r_max: int,
    alphas,
    sim_size: int,
    nsamples: int,
    seed: Seed,
    m_ratio: float = 1.5,
    s_ratio: float = 5.0,
) -> QuantileTable:
    """Draws of the sum of the top r_max Airy_1 coordinates, 1 <= r_max <= sim_size.

    No closed form is practical, so the law is tabulated by Monte Carlo:
    the top r_max eigenvalues of a MANOVA spectrum at internal dimensions
    (K, M, S) = sim_size * (1, m_ratio, s_ratio) are recentered at the
    bulk edge and rescaled by K^(2/3) c_plus^(2/3), then summed.  Edge
    universality makes the law of the top coordinates insensitive to the
    ratios, which mainly control the finite-size error; the accuracy
    control is stability of the quantiles in ``sim_size``.  Only the top
    r_max eigenvalues are bisected; each bisection reads only its own
    Sturm counts, so they come out as they would among more targets.
    ``alphas`` is unused, as in :func:`tabulate_laguerre_max`.
    """
    if sim_size < 100:
        raise InvalidParams(f"sim_size must be >= 100, got {sim_size}")
    if not 1 <= r_max <= sim_size:
        raise InvalidParams(f"need 1 <= r <= sim_size, got r={r_max}, sim_size={sim_size}")
    K, M, S = sim_size, int(round(m_ratio * sim_size)), int(round(s_ratio * sim_size))
    law = WachterParams.from_dimensions(K, M, S)
    top = manova_spectra(K, M, S - M, nsamples, seed, top=r_max)[:, ::-1]  # summed largest first
    sums = np.cumsum(edge_scale(law, K) * (top - law.lambda_plus), axis=1)[:, -1]
    params = {"r": r_max, "sim_size": sim_size, "m_ratio": m_ratio, "s_ratio": s_ratio}
    return QuantileTable.from_samples(STATISTIC_AIRY1_SUM, params, sums, seed)


def independence_test_small(
    U: DataPanel, V: DataPanel, alpha: float, table: QuantileTable
) -> TestReport:
    """Fixed-dimension independence test: reject iff S * c_1^2 > q_alpha.

    The table must be a LAGUERRE_MAX tabulation matching the panel
    dimensions (order-insensitive).
    """
    k, m = sorted((U.rows, V.rows))
    S = U.cols
    top = float(sample_spectrum(U, V)[0])
    return _decide(
        S * top, table.require(STATISTIC_LAGUERRE_MAX, K=k, M=m), alpha, 1.0, "small_dim",
        {"K": U.rows, "M": V.rows, "S": S, "top_corr_sq": top}, None,
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
    if U.rows > V.rows:
        U, V = V, U
    K, M, S = U.rows, V.rows, U.cols
    try:
        params = WachterParams.from_dimensions(K, M, S)
    except InvalidParams as e:
        raise InvalidRegime(f"plug-in ratios outside the valid region: {e}") from e
    top = float(sample_spectrum(U, V)[0])
    statistic = edge_scale(params, K) * (top - params.lambda_plus)
    return _decide(
        statistic, table.require(STATISTIC_AIRY1_SUM, r=1), alpha, 1.0, "large_dim",
        {"K": K, "M": M, "S": S, "top_corr_sq": top, "lambda_plus": params.lambda_plus,
         "c_plus": upper_edge_constant(params)},
        f"min(K, M) = {min(K, M)} < {_SMALL_DIM_WARN}: the edge approximation may be inaccurate; "
        "consider the small-dimension test" if min(K, M) < _SMALL_DIM_WARN else None,
    )
