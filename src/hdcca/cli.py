"""Command-line front end.

Subcommands: ``cca`` (correlations from two CSV panels), ``histogram``
(plot-ready CSV of an empirical spectrum with the limit-density overlay),
``independence`` and ``coint`` (hypothesis tests), ``simulate panels|var1``
(synthetic data) and ``tabulate laguerre-max|airy1-sum|brownian-coint``
(quantile tables).  Each command and kind declares exactly the options it
reads, so the parser rejects any other.

Exit codes: 0 success / fail_to_reject, 3 reject, 2 input error or a path
that cannot be read or written (one-line ``hdcca.error/1`` JSON on stderr).
Reports are JSON on stdout or ``--output``; like every file the CLI writes,
a report is a function of the command's inputs alone, so reruns are
byte-identical.  Quantile tables live in one on-disk store (:func:`_table`),
one file per identity (statistic, parameters, nsamples, seed), whose bytes
that identity alone decides, checked on every read; a table keeps its
draws, so one file serves every ``--alpha``.  A test names
its table and asks the store for it (:class:`_Store`) only after its input
passes, so a bad input builds and stores no table; its regime warning
(:func:`hyptest._decide`) is shown once its report is written, so a
refused table or a failed write prints just the error line.  ``tabulate``
pre-warms the store, in the cache directory ``--table-cache-dir``, else
``$HDCCA_TABLE_DIR``, else ``$XDG_CACHE_HOME/hdcca``, else
``~/.cache/hdcca``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from . import cointegration, dataio, hyptest
from .cca_core import sample_cca
from .cointegration import VarModel
from .ensembles import Seed
from .errors import HdccaError, InputFormatError, InvalidParams, TableMismatch
from .hyptest import STATISTIC_AIRY1_SUM, STATISTIC_BROWNIAN_COINT, STATISTIC_LAGUERRE_MAX, QuantileTable
from .spike import simulate_spiked_panels
from .wachter import Spectrum, WachterParams

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_REJECT = 3

REPORT_SCHEMA = "hdcca.report/1"
CCA_SCHEMA = "hdcca.cca/1"
DEFAULT_NSAMPLES = 10_000
DEFAULT_SIM_SIZE = 100  # the spectrum size of every stored Airy_1 table
# A token that is a negative number is an option's value; argparse's own matcher misses -1e-3 and -inf.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$|^-inf(inity)?$", re.IGNORECASE)


def _write(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(doc: dict, args) -> None:
    """Write a JSON document: sorted keys, two-space indent, a trailing newline."""
    _write(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.output)


# Each table kind, once: statistic id -> (its identity's keys, each an option of `tabulate <kind>` but
# sim_size, which `_add_store` fixes, and its tabulator of (params, nsamples, seed); the unused levels
# slot gets (), the unused Brownian grid slot None).  A tabulator looks its function up in the module
# at call time, so a wrapper installed on the module (the benchmark's tracer) sees every build.
_KINDS = {
    STATISTIC_LAGUERRE_MAX: (
        ("K", "M"), lambda p, n, seed: hyptest.tabulate_laguerre_max(p["K"], p["M"], (), n, seed)
    ),
    STATISTIC_AIRY1_SUM: (
        ("r", "sim_size"), lambda p, n, seed: hyptest.tabulate_airy1_sums(p["r"], (), p["sim_size"], n, seed)
    ),
    STATISTIC_BROWNIAN_COINT: (
        ("K", "r"), lambda p, n, seed: cointegration.tabulate_brownian_coint(p["K"], p["r"], (), None, n, seed)
    ),
}


def _table(args, statistic_id: str, params: dict) -> tuple[QuantileTable, Path]:
    """The stored table with this identity, tabulated from stream 0 of ``--seed`` and stored on a
    miss; its bytes depend on the identity alone, whichever command builds it.

    The file name is the statistic plus the first 24 hex digits of the
    sha256 of the identity; a stored table that does not carry the
    requested identity raises TableMismatch naming the file.
    """
    cache = Path(
        args.table_cache_dir
        or os.environ.get("HDCCA_TABLE_DIR")
        or Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "hdcca"
    )
    seed = Seed(args.seed)
    key = json.dumps(
        {"statistic": statistic_id, "params": params, "nsamples": args.nsamples, "seed": [seed.value, seed.stream]},
        sort_keys=True,
    )
    digest = hashlib.sha256(key.encode()).hexdigest()[:24]
    path = cache / f"{statistic_id.lower()}-{digest}.json"
    if path.exists():
        table = QuantileTable.load(path)
        try:
            if (len(table.draws), table.seed) != (args.nsamples, seed):
                raise TableMismatch(
                    f"table has {len(table.draws)} draws at {table.seed}, request is {args.nsamples} at {seed}"
                )
            return table.require(statistic_id, **params), path
        except TableMismatch as e:
            raise TableMismatch(f"{path}: stored {e}") from None
    table = _KINDS[statistic_id][1](params, args.nsamples, seed)
    table.save(path)
    return table, path


@dataclasses.dataclass(frozen=True)
class _Store:
    """Where a test, once its input has passed, asks for its stored table: the identity takes from
    the options each key the test does not name (an Airy_1 table's ``sim_size``)."""

    args: argparse.Namespace

    def require(self, statistic_id: str, **params) -> QuantileTable:
        params.update({k: getattr(self.args, k) for k in _KINDS[statistic_id][0] if k not in params})
        return _table(self.args, statistic_id, params)[0]


def _emit_report(args, report, warned: list) -> int:
    """Write the report, then show the test's `warned` regime warnings, so a failed write prints one line."""
    _emit({"schema": REPORT_SCHEMA, "command": args.command, **report.to_json_dict()}, args)
    for w in warned:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return EXIT_REJECT if report.rejected else EXIT_OK


def _floats(text: str, option: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise InputFormatError(f"{option} must be comma-separated numbers, got {text!r}") from None


# --- subcommands -----------------------------------------------------------


def cmd_cca(args) -> int:
    U = dataio.load_panel_csv(args.u)
    V = dataio.load_panel_csv(args.v)
    system = sample_cca(U, V, tol=args.tol)
    dims = {"K": U.rows, "M": V.rows, "S": U.cols}
    doc = {
        "schema": CCA_SCHEMA,
        "correlations_sq": system.correlations_sq.tolist(),
        "alphas": system.alphas.tolist(),
        "betas": system.betas.tolist(),
        "clustered": system.clustered.tolist(),
        "provenance": {**dims, "u_path": Path(args.u).name, "v_path": Path(args.v).name},
        "spectrum": dataio.spectrum_doc(Spectrum(system.correlations_sq, dims)),
    }
    _emit(doc, args)
    return EXIT_OK


def cmd_histogram(args) -> int:
    if not 5 <= args.bins <= 100_000:
        raise InvalidParams(f"need 5 to 100000 histogram bins, got {args.bins}")
    coint = args.coint_tau is not None
    if (args.tau_k is None, args.tau_m is None) != (coint, coint):
        raise InputFormatError("histogram needs either --tau-k and --tau-m or --coint-tau")
    params = cointegration.detrended_law(args.coint_tau) if coint else WachterParams(args.tau_k, args.tau_m)
    spec = dataio.load_spectrum_json(args.spectrum)
    _write(dataio.histogram_csv(spec.values, params, args.bins), args.output)
    return EXIT_OK


def cmd_independence(args) -> int:
    hyptest.check_test_level(args.alpha)
    U = dataio.load_panel_csv(args.u)
    V = dataio.load_panel_csv(args.v)
    test = hyptest.independence_test_small if args.regime == "small" else hyptest.independence_test_large
    with warnings.catch_warnings(record=True) as warned:
        report = test(U, V, args.alpha, _Store(args))
    return _emit_report(args, report, warned)


def cmd_coint(args) -> int:
    hyptest.check_test_level(args.alpha)
    X = dataio.load_timeseries_csv(args.input)
    test = cointegration.coint_test_small if args.regime == "small" else cointegration.coint_test_large
    with warnings.catch_warnings(record=True) as warned:
        report = test(X, args.r, args.alpha, _Store(args))
    return _emit_report(args, report, warned)


def cmd_simulate_panels(args) -> int:
    rho2s = _floats(args.rho2, "--rho2") if args.rho2 else []
    U, V = simulate_spiked_panels(args.k, args.m, args.s, rho2s, Seed(args.seed))
    dataio.save_panel_csv(args.output_u, U)
    dataio.save_panel_csv(args.output_v, V)
    return EXIT_OK


def cmd_simulate_var1(args) -> int:
    pi = cointegration.make_pi_rank_r(args.k, args.pi_rank, args.pi_scale, Seed(args.seed))
    model = VarModel(pi=pi, lam=np.eye(args.k), x0=np.zeros(args.k))
    ts = cointegration.simulate_var1(model, args.t, Seed(args.seed, 1))
    dataio.save_timeseries_csv(args.output, ts)
    return EXIT_OK


def cmd_tabulate(args) -> int:
    params = {name: getattr(args, name) for name in _KINDS[args.statistic_id][0]}
    sys.stdout.write(f"{_table(args, args.statistic_id, params)[1]}\n")
    return EXIT_OK


# --- parser ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors raise InputFormatError, reported by ``main`` as one-line JSON,
    and which takes no abbreviated option (``--out`` for ``--output``).

    Subcommand parsers are built from the parent's class, so this covers them too.
    """

    def __init__(self, *args, allow_abbrev=False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise InputFormatError(f"{self.prog}: {message}")


def _add_store(p: argparse.ArgumentParser) -> None:
    """The options that name a stored table; an Airy_1 table's sim_size is DEFAULT_SIM_SIZE, no option."""
    p.add_argument("--seed", type=int, default=0, help="RNG seed value of a table (drawn from stream 0)")
    p.add_argument("--table-cache-dir", help="quantile table cache directory")
    p.add_argument("--nsamples", type=int, default=DEFAULT_NSAMPLES, help="Monte Carlo draws of a table")
    p.set_defaults(sim_size=DEFAULT_SIM_SIZE)


def _add_test_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=0.95, help="confidence level 1 - size, in (0.5, 1)")
    p.add_argument("--regime", choices=("small", "large"), required=True)
    _add_store(p)
    p.add_argument("--output", help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hdcca", description="High-dimensional canonical correlation analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cca", help="canonical correlations between two CSV panels")
    p.add_argument("--u", required=True, help="first panel CSV (variables x observations)")
    p.add_argument("--v", required=True, help="second panel CSV")
    p.add_argument("--tol", type=float, default=1e-10, help="relative rank tolerance")
    p.add_argument("--output", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_cca)

    p = sub.add_parser("histogram", help="binned spectrum with limit-density overlay")
    p.add_argument("--spectrum", required=True, help="spectrum JSON file")
    p.add_argument("--tau-k", type=float, help="ratio S/K of the overlay")
    p.add_argument("--tau-m", type=float, help="ratio S/M of the overlay")
    p.add_argument("--coint-tau", type=float, help="cointegration ratio T/K; overlays the (1+tau, (1+tau)/2) law")
    p.add_argument("--bins", type=int, default=40, help="number of bins over [0, 1], 5 to 100000")
    p.add_argument("--output", help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_histogram)

    p = sub.add_parser("independence", help="test independence of two panels")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    _add_test_options(p)
    p.set_defaults(func=cmd_independence)

    p = sub.add_parser("coint", help="test for cointegration in a time-series CSV")
    p.add_argument("--input", required=True, help="time-series CSV")
    p.add_argument("--r", type=int, default=1, help="cointegration rank under the alternative")
    _add_test_options(p)
    p.set_defaults(func=cmd_coint)

    kinds = sub.add_parser("simulate", help="generate synthetic data").add_subparsers(dest="kind", required=True)
    p = kinds.add_parser("panels", help="two Gaussian panels with planted squared correlations")
    p.add_argument("--k", type=int, required=True, help="first panel dimension")
    p.add_argument("--m", type=int, required=True, help="second panel dimension")
    p.add_argument("--s", type=int, required=True, help="observation count")
    p.add_argument("--rho2", help="comma-separated planted squared correlations")
    p.add_argument("--output-u", required=True, help="first panel output CSV")
    p.add_argument("--output-v", required=True, help="second panel output CSV")
    p.add_argument("--seed", type=int, default=0, help="RNG seed value")
    p.set_defaults(func=cmd_simulate_panels)

    p = kinds.add_parser("var1", help="a VAR(1) time series")
    p.add_argument("--k", type=int, required=True, help="dimension")
    p.add_argument("--t", type=int, required=True, help="horizon")
    p.add_argument("--pi-rank", type=int, default=0, help="rank of the coefficient matrix")
    p.add_argument("--pi-scale", type=float, default=-0.5, help="factor scale")
    p.add_argument("--output", required=True, help="time-series output CSV")
    p.add_argument("--seed", type=int, default=0, help="RNG seed value")
    p.set_defaults(func=cmd_simulate_var1)

    p = sub.add_parser("tabulate", help="build a Monte Carlo quantile table")
    kinds = p.add_subparsers(dest="statistic", required=True)
    # each kind declares the keys of its table identity: key -> (option, add_argument kwargs); sim_size has none
    options = {
        "K": ("--k", dict(type=int, required=True, help="panel dimension")),
        "M": ("--m", dict(type=int, required=True, help="second dimension")),
        "r": ("--r", dict(type=int, default=1, help="number of top coordinates summed")),
    }
    for statistic_id, (identity, _) in _KINDS.items():
        kind = statistic_id.lower().replace("_", "-")
        p = kinds.add_parser(kind, help=f"the {kind} table")
        for name in identity:
            if name in options:
                p.add_argument(options[name][0], dest=name, **options[name][1])
        _add_store(p)
        p.set_defaults(func=cmd_tabulate, statistic_id=statistic_id)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (HdccaError, OSError) as e:  # OSError: a path that cannot be read or written
        err = {"schema": "hdcca.error/1", "error": type(e).__name__, "message": str(e)}
        sys.stderr.write(json.dumps(err, sort_keys=True) + "\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
