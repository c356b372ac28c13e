"""Command-line front end.

Subcommands: ``cca`` (correlations from two CSV panels), ``histogram``
(plot-ready CSV of an empirical spectrum with the limit-density overlay),
``independence`` and ``coint`` (hypothesis tests), ``simulate`` (synthetic
panels and VAR(1) series), ``tabulate`` (Monte Carlo quantile tables).

Exit codes: 0 success / fail_to_reject, 3 reject, 2 input error or a path
that cannot be read or written (one-line ``hdcca.error/1`` JSON on stderr).
Reports are JSON on stdout or ``--output``; pass ``--no-timestamp`` for
byte-identical reruns.  Quantile tables live in one on-disk store
(:func:`_table`), one file per identity (statistic, parameters, nsamples,
seed), checked on every read; a table keeps its draws, so one file serves
every ``--alpha``.  ``tabulate`` without ``--output`` pre-warms it.  The
cache directory comes from ``--table-cache-dir``, then
``$HDCCA_TABLE_DIR``, then ``$XDG_CACHE_HOME/hdcca``, then
``~/.cache/hdcca``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import cointegration, dataio, hyptest
from .cca_core import sample_cca
from .cointegration import VarModel
from .ensembles import Seed
from .errors import DimensionMismatch, HdccaError, InputFormatError, TableMismatch
from .hyptest import STATISTIC_AIRY1_SUM, STATISTIC_BROWNIAN_COINT, STATISTIC_LAGUERRE_MAX, QuantileTable
from .spike import simulate_spiked_panels
from .wachter import Spectrum, WachterParams

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_REJECT = 3

REPORT_SCHEMA = "hdcca.report/1"
CCA_SCHEMA = "hdcca.cca/1"
DEFAULT_NSAMPLES = 10_000


def _seed(args) -> Seed:
    return Seed(args.seed, args.stream)


def _write(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(doc: dict, args) -> None:
    """Write a JSON document, stamped with the time unless ``--no-timestamp``."""
    if not args.no_timestamp:
        doc["timestamp"] = hyptest._now()
    _write(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.output)


# Statistic id -> tabulator of (params, nsamples, seed); the unused levels
# slot gets ().  Each entry looks its function up in the module at call
# time, so a wrapper installed on the module (the benchmark's tracer) sees
# every build.
_TABULATORS = {
    STATISTIC_LAGUERRE_MAX: lambda p, n, seed: hyptest.tabulate_laguerre_max(p["K"], p["M"], (), n, seed),
    STATISTIC_AIRY1_SUM: lambda p, n, seed: hyptest.tabulate_airy1_sums(p["r"], (), p["sim_size"], n, seed),
    STATISTIC_BROWNIAN_COINT: lambda p, n, seed: cointegration.tabulate_brownian_coint(
        p["K"], p["r"], (), p["n_grid"], n, seed
    ),
}


def _tabulate(args, statistic_id: str, params: dict) -> QuantileTable:
    """A freshly built table; ``--no-timestamp`` leaves out its build time."""
    table = _TABULATORS[statistic_id](params, args.nsamples, _seed(args))
    return dataclasses.replace(table, built_at=None) if args.no_timestamp else table


def _table(args, statistic_id: str, params: dict) -> tuple[QuantileTable, Path]:
    """The stored table with this identity, tabulated and stored on a miss.

    The file name is the statistic plus the first 24 hex digits of the
    sha256 of the identity; a stored table that does not carry the
    requested identity raises TableMismatch naming the file.
    """
    cache = Path(
        args.table_cache_dir
        or os.environ.get("HDCCA_TABLE_DIR")
        or Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "hdcca"
    )
    seed = _seed(args)
    key = json.dumps(
        {
            "statistic": statistic_id,
            "params": params,
            "nsamples": args.nsamples,
            "seed": [seed.value, seed.stream],
        },
        sort_keys=True,
    )
    digest = hashlib.sha256(key.encode()).hexdigest()[:24]
    path = cache / f"{statistic_id.lower()}-{digest}.json"
    if path.exists():
        table = QuantileTable.load(path)
        wanted = (statistic_id, params, args.nsamples, seed)
        found = (table.statistic_id, {k: table.params.get(k) for k in params}, len(table.draws), table.seed)
        if found != wanted:
            raise TableMismatch(f"{path}: stored table is {found}, request is {wanted}")
        return table, path
    table = _tabulate(args, statistic_id, params)
    table.save(path)
    return table, path


def _test_table(args, statistic_id: str, params: dict) -> QuantileTable:
    """The ``--table`` file if one is given, else the stored table."""
    if args.table:
        return QuantileTable.load(args.table)
    return _table(args, statistic_id, params)[0]


def _emit_report(args, report) -> int:
    _emit({"schema": REPORT_SCHEMA, "command": args.command, **report.to_json_dict()}, args)
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
        "correlations_sq": [float(c) for c in system.correlations_sq],
        "alphas": [[float(x) for x in row] for row in system.alphas],
        "betas": [[float(x) for x in row] for row in system.betas],
        "clustered": [bool(b) for b in system.clustered],
        "provenance": {**dims, "u_path": Path(args.u).name, "v_path": Path(args.v).name},
        "spectrum": dataio.spectrum_doc(Spectrum(system.correlations_sq, dims)),
    }
    _emit(doc, args)
    return EXIT_OK


def cmd_histogram(args) -> int:
    if args.bins < 5:
        raise HdccaError(f"need at least 5 histogram bins, got {args.bins}")
    spec = dataio.load_spectrum_json(args.spectrum)
    if args.coint_tau is not None:
        params = WachterParams(tau_k=1.0 + args.coint_tau, tau_m=(1.0 + args.coint_tau) / 2.0)
    else:
        if args.tau_k is None or args.tau_m is None:
            raise HdccaError("histogram needs either --tau-k and --tau-m or --coint-tau")
        params = WachterParams(tau_k=args.tau_k, tau_m=args.tau_m)
    _write(dataio.histogram_csv(spec.values, params, args.bins), args.output)
    return EXIT_OK


def cmd_independence(args) -> int:
    hyptest.check_level(args.alpha)
    U = dataio.load_panel_csv(args.u)
    V = dataio.load_panel_csv(args.v)
    if args.regime == "small":
        k, m = sorted((U.rows, V.rows))
        table = _test_table(args, STATISTIC_LAGUERRE_MAX, {"K": k, "M": m})
        report = hyptest.independence_test_small(U, V, args.alpha, table)
    else:
        table = _test_table(args, STATISTIC_AIRY1_SUM, {"r": 1, "sim_size": args.sim_size})
        report = hyptest.independence_test_large(U, V, args.alpha, table)
    return _emit_report(args, report)


def cmd_coint(args) -> int:
    hyptest.check_level(args.alpha)
    X = dataio.load_timeseries_csv(args.input)
    if args.regime == "small":
        table = _test_table(args, STATISTIC_BROWNIAN_COINT, {"K": X.K, "r": args.r, "n_grid": args.n_grid})
        report = cointegration.coint_test_small(X, args.r, args.alpha, table)
    else:
        table = _test_table(args, STATISTIC_AIRY1_SUM, {"r": args.r, "sim_size": args.sim_size})
        report = cointegration.coint_test_large(X, args.r, args.alpha, table)
    return _emit_report(args, report)


def cmd_simulate(args) -> int:
    seed = _seed(args)
    if args.kind == "panels":
        rho2s = _floats(args.rho2, "--rho2") if args.rho2 else []
        U, V = simulate_spiked_panels(args.k, args.m, args.s, rho2s, seed)
        dataio.save_panel_csv(args.output_u, U)
        dataio.save_panel_csv(args.output_v, V)
    else:  # var1
        if args.pi_corner:
            if args.k < 1:
                raise DimensionMismatch(f"--pi-corner needs --k >= 1, got {args.k}")
            pi = np.zeros((args.k, args.k))
            pi[0, 0] = -1.0
        else:
            pi = cointegration.make_pi_rank_r(args.k, args.pi_rank, args.pi_scale, seed)
        model = VarModel(pi=pi, lam=np.eye(args.k), x0=np.zeros(args.k))
        ts = cointegration.simulate_var1(model, args.t, Seed(seed.value, seed.stream + 1))
        dataio.save_timeseries_csv(args.output, ts)
    return EXIT_OK


def cmd_tabulate(args) -> int:
    params = {
        "laguerre-max": {"K": args.k, "M": args.m},
        "airy1-sum": {"r": args.r, "sim_size": args.sim_size},
        "brownian-coint": {"K": args.k, "r": args.r, "n_grid": args.n_grid},
    }[args.statistic]
    _require_options(f"tabulate {args.statistic}", {name.lower(): value for name, value in params.items()})
    statistic_id = args.statistic.upper().replace("-", "_")
    if args.output:
        _tabulate(args, statistic_id, params).save(args.output)
        path = args.output
    else:
        path = _table(args, statistic_id, params)[1]
    sys.stdout.write(f"{path}\n")
    return EXIT_OK


# --- parser ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors raise InputFormatError, reported by ``main`` as one-line JSON.

    Subcommand parsers are built from the parent's class, so this covers them too.
    """

    def error(self, message):
        raise InputFormatError(f"{self.prog}: {message}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="RNG seed value")
    p.add_argument("--stream", type=int, default=0, help="RNG stream index")
    p.add_argument("--output", help="write the report here instead of stdout")
    p.add_argument("--no-timestamp", action="store_true", help="omit timestamps for byte-identical output")
    p.add_argument("--table-cache-dir", help="quantile table cache directory")


def _add_test_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=0.95, help="confidence level")
    p.add_argument("--regime", choices=("small", "large"), required=True)
    p.add_argument("--table", help="quantile table JSON (tabulated on demand if omitted)")
    p.add_argument("--nsamples", type=int, default=DEFAULT_NSAMPLES)
    p.add_argument("--sim-size", type=int, default=100, help="internal spectrum size for edge tabulation")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hdcca",
        description="High-dimensional canonical correlation analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cca", help="canonical correlations between two CSV panels")
    p.add_argument("--u", required=True, help="first panel CSV (variables x observations)")
    p.add_argument("--v", required=True, help="second panel CSV")
    p.add_argument("--tol", type=float, default=1e-10, help="relative rank tolerance")
    _add_common(p)
    p.set_defaults(func=cmd_cca)

    p = sub.add_parser("histogram", help="binned spectrum with limit-density overlay")
    p.add_argument("--spectrum", required=True, help="spectrum JSON file")
    p.add_argument("--tau-k", type=float, help="ratio S/K of the overlay")
    p.add_argument("--tau-m", type=float, help="ratio S/M of the overlay")
    p.add_argument("--coint-tau", type=float, help="cointegration ratio T/K; overlays the (1+tau, (1+tau)/2) law")
    p.add_argument("--bins", type=int, default=40, help="number of bins over [0, 1]")
    _add_common(p)
    p.set_defaults(func=cmd_histogram)

    p = sub.add_parser("independence", help="test independence of two panels")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    _add_test_options(p)
    _add_common(p)
    p.set_defaults(func=cmd_independence)

    p = sub.add_parser("coint", help="test for cointegration in a time-series CSV")
    p.add_argument("--input", required=True, help="time-series CSV")
    p.add_argument("--r", type=int, default=1, help="cointegration rank under the alternative")
    p.add_argument("--n-grid", type=int, default=1000, help="Brownian discretization steps")
    _add_test_options(p)
    _add_common(p)
    p.set_defaults(func=cmd_coint)

    p = sub.add_parser("simulate", help="generate synthetic data")
    p.add_argument("kind", choices=("panels", "var1"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, help="second panel dimension (panels)")
    p.add_argument("--s", type=int, help="observation count (panels)")
    p.add_argument("--rho2", help="comma-separated planted squared correlations (panels)")
    p.add_argument("--t", type=int, help="horizon (var1)")
    p.add_argument("--pi-rank", type=int, default=0, help="rank of the coefficient matrix (var1)")
    p.add_argument("--pi-scale", type=float, default=-0.5, help="factor scale (var1)")
    p.add_argument("--pi-corner", action="store_true", help="single -1 in the top-left corner (var1)")
    p.add_argument("--output-u", help="first panel output CSV (panels)")
    p.add_argument("--output-v", help="second panel output CSV (panels)")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tabulate", help="build a Monte Carlo quantile table")
    p.add_argument("--statistic", choices=("laguerre-max", "airy1-sum", "brownian-coint"), required=True)
    p.add_argument("--k", type=int, help="panel dimension (laguerre-max, brownian-coint)")
    p.add_argument("--m", type=int, help="second dimension (laguerre-max)")
    p.add_argument("--r", type=int, default=1, help="number of top coordinates summed")
    p.add_argument("--sim-size", type=int, default=100)
    p.add_argument("--n-grid", type=int, default=1000)
    p.add_argument("--nsamples", type=int, default=DEFAULT_NSAMPLES)
    _add_common(p)
    p.set_defaults(func=cmd_tabulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "simulate":
            _validate_simulate_args(args)
        return args.func(args)
    except (HdccaError, OSError) as e:  # OSError: a path that cannot be read or written
        err = {"schema": "hdcca.error/1", "error": type(e).__name__, "message": str(e)}
        sys.stderr.write(json.dumps(err, sort_keys=True) + "\n")
        return EXIT_INPUT_ERROR


def _validate_simulate_args(args) -> None:
    needed = ("m", "s", "output_u", "output_v") if args.kind == "panels" else ("t", "output")
    _require_options(f"simulate {args.kind}", {n.replace("_", "-"): getattr(args, n) for n in needed})


def _require_options(command: str, values: dict) -> None:
    """Raise HdccaError naming every option in ``values`` (name -> parsed value) left unset."""
    missing = [f"--{name}" for name, value in values.items() if value is None]
    if missing:
        raise HdccaError(f"{command} needs {', '.join(missing)}")


if __name__ == "__main__":
    raise SystemExit(main())
