"""High-dimensional canonical correlation analysis toolkit.

Exact CCA, batched spectra of the random-matrix null ensembles, the
Wachter limit law, spiked-signal detection and inversion, and classical
plus high-dimensional cointegration tests calibrated by built-in Monte
Carlo quantile tabulation.

The package root is lazy (PEP 562): an exported name imports its home
module on first access, so ``import hdcca`` (and ``python -m hdcca``,
before its ``__main__`` runs) loads no numpy.
"""

import importlib

from . import errors

# each exported name -> its home module
_HOME = {
    name: module
    for module, names in {
        "cca_core": "CanonicalSystem CovarianceTriple DataPanel alignment_angle population_cca sample_cca",
        "cointegration": "TimeSeriesPanel VarModel coint_lambda_pm coint_test_large coint_test_small "
        "detrended_law johansen_lambdas make_pi_rank_r modified_lambdas simulate_brownian_null simulate_var1 "
        "tabulate_brownian_coint trace_statistic",
        "ensembles": "Seed",
        "hyptest": "QuantileTable TestReport independence_test_large independence_test_small "
        "tabulate_airy1_sums tabulate_laguerre_max",
        "spike": "SignalEstimate SpikeReport detection_threshold estimate_signals predicted_angles rho2_from_z "
        "simulate_spiked_panels z_from_rho2",
        "wachter": "Spectrum WachterParams cdf edge_constants ks_distance pdf ppf stieltjes support "
        "support_endpoints",
    }.items()
    for name in names.split()
}
__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise errors.NoSuchExport(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list[str]:
    return __all__
