#!/usr/bin/env python3
"""Null experiment: spectrum of two independent Gaussian panels vs the limit law.

Simulates squared sample canonical correlations at K=100, M=150, S=500
(adjustable), writes a plot-ready histogram CSV with the limit-density
overlay, and prints the Kolmogorov distance to the limit.
"""

import argparse
from pathlib import Path

from hdcca import (
    DataPanel,
    Seed,
    Spectrum,
    WachterParams,
    ks_distance,
    sample_cca,
    support,
)
from hdcca.dataio import histogram_csv


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=100)
    ap.add_argument("--m", type=int, default=150)
    ap.add_argument("--s", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--bins", type=int, default=40)
    ap.add_argument("--output", default="wachter_null_hist.csv")
    args = ap.parse_args()

    rng = Seed(args.seed).generator()
    U = DataPanel(rng.standard_normal((args.k, args.s)))
    V = DataPanel(rng.standard_normal((args.m, args.s)))
    vals = sample_cca(U, V).correlations_sq
    params = WachterParams.from_dimensions(args.k, args.m, args.s)
    Path(args.output).write_text(histogram_csv(vals, params, args.bins))

    spec = Spectrum(vals, meta={"K": args.k, "M": args.m, "S": args.s})
    lo, hi = support(params)
    print(f"bulk support: [{lo:.5f}, {hi:.5f}]")
    print(f"KS distance to the limit: {ks_distance(spec, params):.4f}")
    print(f"histogram written to {args.output}")


if __name__ == "__main__":
    main()
