"""Single-thread baselines of the two BLAS-bound kernels.

Run with every *_NUM_THREADS variable set to 1; prints one JSON object:
seconds per ``sample_cca`` call at 100 x 150 x 500 and milliseconds per
``manova_spectra`` draw at the Airy table's (100, 150, 350), each the
median of several timings.
"""

import json
import statistics
import time

from hdcca.cca_core import sample_cca
from hdcca.ensembles import Seed, manova_spectra
from hdcca.spike import simulate_spiked_panels


def median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


if __name__ == "__main__":
    U, V = simulate_spiked_panels(100, 150, 500, [], Seed(0))
    sample_cca(U, V)  # first call pays one-off costs
    draws = 100
    print(json.dumps({
        "sample_cca_large_s": median_time(lambda: sample_cca(U, V), 15),
        "manova_ms_per_draw": 1e3 * median_time(lambda: manova_spectra(100, 150, 350, draws, Seed(1)), 3) / draws,
    }))
