"""High-dimensional canonical correlation analysis toolkit.

Exact CCA, batched spectra of the random-matrix null ensembles, the
Wachter limit law, spiked-signal detection and inversion, and classical
plus high-dimensional cointegration tests calibrated by built-in Monte
Carlo quantile tabulation.
"""

from .cca_core import (
    CanonicalSystem,
    CovarianceTriple,
    DataPanel,
    alignment_angle,
    population_cca,
    sample_cca,
)
from .cointegration import (
    TimeSeriesPanel,
    VarModel,
    coint_lambda_pm,
    coint_test_large,
    coint_test_small,
    detrended_law,
    johansen_lambdas,
    make_pi_rank_r,
    modified_lambdas,
    simulate_brownian_null,
    simulate_var1,
    tabulate_brownian_coint,
    trace_statistic,
)
from .ensembles import Seed
from .hyptest import (
    QuantileTable,
    TestReport,
    independence_test_large,
    independence_test_small,
    tabulate_airy1_sums,
    tabulate_laguerre_max,
)
from .spike import (
    SignalEstimate,
    SpikeReport,
    detection_threshold,
    estimate_signals,
    predicted_angles,
    rho2_from_z,
    simulate_spiked_panels,
    z_from_rho2,
)
from .wachter import (
    Spectrum,
    WachterParams,
    cdf,
    edge_constants,
    ks_distance,
    pdf,
    ppf,
    stieltjes,
    support,
    support_endpoints,
)

__version__ = "0.1.0"
