"""The CLI's contract on any argv: a fuzzer over in-process ``cli.main`` calls.

Each example is one argv, run in two fresh directories that hold the same small inputs: a 2x3x20 panel
pair, the pair scaled by 1e-300 and by 1e300, a 2x3x5 pair (K + M = S), a 1x1 panel, a K = 3, T = 6
series and a three-value spectrum.  Float options take extreme and oddly spelled values, and every size
option takes one of a few small values or an array past numpy's largest, so nothing large is ever
allocated.  Every call must:

- exit 0, 2 or 3;
- on exit 2, write exactly one ``hdcca.error/1`` line to stderr;
- on exit 0 or 3, write JSON whose every number is finite, and at most the test's regime warning;
- write the same bytes in both directories.
"""

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hdcca.cca_core import DataPanel
from hdcca.cli import main
from hdcca.cointegration import TimeSeriesPanel
from hdcca.dataio import save_panel_csv, save_spectrum_json, save_timeseries_csv
from hdcca.wachter import Spectrum

FLOATS = ["nan", "inf", "-inf", "0.0", "-0.0", "5e-324", "1e308", "-1e308", "1E-3", "-2.5e+0",
          "18446744073709551616"]
SIZES = ["2", "3", "1", "50", "0", "-1"]  # hypothesis favours the first values
SEEDS = ["0", "5", "-1", "18446744073709551615", "18446744073709551616"]
PAIRS = [("u.csv", "v.csv"), ("u_tiny.csv", "v_tiny.csv"), ("u_huge.csv", "v_huge.csv"),
         ("u_kms.csv", "v_kms.csv"), ("one.csv", "one.csv")]
STORE = ["--table-cache-dir", "tables"]
# sizes whose arrays exceed numpy's largest (more than 2^63 bytes), each refused before any allocation
PANELS_PAST_MAX = ["--k", "10000000000", "--m", "1", "--s", "10000000000"]
SERIES_PAST_MAX = [["--k", "10000000000", "--t", "10"], ["--k", "3", "--t", str(2**62)]]


def write_inputs(d: Path) -> None:
    rng = np.random.default_rng(0)
    u, v = rng.standard_normal((2, 20)), rng.standard_normal((3, 20))
    for suffix, c in (("", 1.0), ("_tiny", 1e-300), ("_huge", 1e300)):
        save_panel_csv(d / f"u{suffix}.csv", DataPanel(u * c))
        save_panel_csv(d / f"v{suffix}.csv", DataPanel(v * c))
    save_panel_csv(d / "u_kms.csv", DataPanel(u[:, :5]))
    save_panel_csv(d / "v_kms.csv", DataPanel(v[:, :5]))
    save_panel_csv(d / "one.csv", DataPanel(np.array([[1.5]])))
    save_timeseries_csv(d / "ts.csv", TimeSeriesPanel(rng.standard_normal((3, 7)).cumsum(axis=1)))
    save_spectrum_json(d / "spec.json", Spectrum(np.array([0.6, 0.3, 0.1])))


def options(*parts) -> st.SearchStrategy:
    return st.tuples(*parts).map(lambda chosen: [a for part in chosen for a in part])


def given_as(option: str, values) -> st.SearchStrategy:
    return st.sampled_from(values).map(lambda x: [option, x])


def maybe(option: str, values) -> st.SearchStrategy:
    """[option, value] or [], the option left to its default."""
    return st.one_of(st.just([]), given_as(option, values))


def number(option: str, *usual) -> st.SearchStrategy:
    """A float option, as often a usual value as an extreme one."""
    return st.one_of(given_as(option, usual), given_as(option, FLOATS))


PAIR = st.sampled_from(PAIRS).map(lambda p: ["--u", p[0], "--v", p[1]])
# --nsamples is always given: its default, 10^4 draws, takes seconds for some tables
TABLE = options(given_as("--nsamples", SIZES), maybe("--seed", SEEDS), st.just(STORE))
TEST = options(given_as("--regime", ["small", "large"]), st.one_of(st.just([]), number("--alpha", "0.9", "0.99")),
               TABLE, st.just(["--output", "r.json"]))
ARGV = st.one_of(
    options(st.just(["cca"]), PAIR, st.one_of(st.just([]), number("--tol", "1e-8")), st.just(["--output", "r.json"])),
    options(st.just(["histogram", "--spectrum", "spec.json"]),
            st.one_of(options(number("--tau-k", "5", "2.5"), number("--tau-m", "3")), number("--coint-tau", "3"),
                      options(maybe("--tau-k", FLOATS), maybe("--tau-m", FLOATS), maybe("--coint-tau", FLOATS))),
            maybe("--bins", SIZES), st.just(["--output", "h.csv"])),
    options(st.just(["independence"]), PAIR, TEST),
    options(st.just(["coint"]), given_as("--input", ["ts.csv", "u.csv"]), maybe("--r", SIZES), TEST),
    options(st.just(["simulate", "panels"]),
            st.one_of(options(given_as("--k", SIZES), given_as("--m", SIZES), given_as("--s", SIZES)),
                      st.just(PANELS_PAST_MAX)),
            st.one_of(st.just([]), number("--rho2", "0.5", "0.25,0.5", "0.5,x")), maybe("--seed", SEEDS),
            st.just(["--output-u", "u_out.csv", "--output-v", "v_out.csv"])),
    options(st.just(["simulate", "var1"]),
            # --pi-rank >= 1 draws a K x rank matrix, so it stays at 0 beside the overflowing sizes
            st.one_of(options(given_as("--k", SIZES), given_as("--t", SIZES), maybe("--pi-rank", SIZES)),
                      options(st.sampled_from(SERIES_PAST_MAX), maybe("--pi-rank", ["-1", "0"]))),
            st.one_of(st.just([]), number("--pi-scale", "-0.5")), maybe("--seed", SEEDS),
            st.just(["--output", "ts_out.csv"])),
    options(st.just(["tabulate", "laguerre-max"]), given_as("--k", SIZES), given_as("--m", SIZES), TABLE),
    options(st.just(["tabulate", "airy1-sum"]), maybe("--r", SIZES), TABLE),
    options(st.just(["tabulate", "brownian-coint"]), given_as("--k", SIZES), maybe("--r", SIZES), TABLE),
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    write_inputs(d)
    return d


def run(argv, inputs: Path) -> tuple[int, str, str, dict]:
    """(exit code, stdout, stderr, {path: bytes} of every file written) of `argv` in a fresh copy of `inputs`."""
    cwd = Path.cwd()
    with tempfile.TemporaryDirectory() as work:
        work = Path(work) / "run"
        shutil.copytree(inputs, work)
        before = set(work.rglob("*"))
        out, err = io.StringIO(), io.StringIO()
        os.chdir(work)
        try:
            # tier-1 turns warnings into errors and records the ones it shows; a CLI process prints them
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("default")
                warnings.showwarning = lambda message, category, filename, lineno, file=None, line=None: err.write(
                    warnings.formatwarning(message, category, filename, lineno, line))
                code = main(argv)
        finally:
            os.chdir(cwd)
        written = {p.relative_to(work).as_posix(): p.read_bytes()
                   for p in sorted(work.rglob("*")) if p.is_file() and p not in before}
    return code, out.getvalue(), err.getvalue(), written


def finite(doc) -> bool:
    if isinstance(doc, dict):
        return all(map(finite, doc.values()))
    if isinstance(doc, list):
        return all(map(finite, doc))
    return not isinstance(doc, float) or math.isfinite(doc)


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=ARGV)
def test_every_argv_keeps_the_contract(inputs, argv):
    code, out, err, written = run(argv, inputs)
    assert code in (0, 2, 3), (code, err)
    if code == 2:
        [line] = err.splitlines()
        assert json.loads(line)["schema"] == "hdcca.error/1"
    else:
        lines = err.splitlines()
        assert lines == [] or (argv[0] in ("independence", "coint") and len(lines) == 2
                                and "RuntimeWarning" in lines[0]), err
        for name, data in written.items():
            if name.endswith(".json"):
                assert finite(json.loads(data)), name
    code_again, out_again, _, written_again = run(argv, inputs)
    assert (code_again, out_again, written_again) == (code, out, written)
