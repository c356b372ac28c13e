import argparse
import ast
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hdcca import hyptest
from hdcca.cli import build_parser, main
from hdcca.dataio import (
    SPECTRUM_SCHEMA,
    load_panel_csv,
    load_spectrum_json,
    load_timeseries_csv,
    save_panel_csv,
    save_spectrum_json,
    save_timeseries_csv,
)
from hdcca.cca_core import DataPanel
from hdcca.cointegration import TimeSeriesPanel
from hdcca.errors import InputFormatError
from hdcca.hyptest import QuantileTable
from hdcca.wachter import Spectrum, WachterParams, support
from oracles import sample_cca_projector_oracle

DATA = Path(__file__).parent / "data"


def run_cli(args, tmp_path):
    # the commands that read the table store
    if args[0] in ("independence", "coint", "tabulate"):
        args = [*args, "--table-cache-dir", str(tmp_path / "cache")]
    return main(args)


class TestDataIo:
    def test_panel_round_trip(self, tmp_path, rng):
        panel = DataPanel(rng.standard_normal((3, 7)))
        path = tmp_path / "p.csv"
        save_panel_csv(path, panel)
        np.testing.assert_array_equal(load_panel_csv(path).values, panel.values)

    def test_timeseries_round_trip(self, tmp_path, rng):
        ts = TimeSeriesPanel(rng.standard_normal((2, 11)))
        path = tmp_path / "ts.csv"
        save_timeseries_csv(path, ts)
        np.testing.assert_array_equal(load_timeseries_csv(path).X, ts.X)

    def test_spectrum_round_trip(self, tmp_path):
        spec = Spectrum(np.array([0.7, 0.3, 0.1]), meta={"K": 3, "M": 4, "S": 10})
        path = tmp_path / "s.json"
        save_spectrum_json(path, spec)
        loaded = load_spectrum_json(path)
        np.testing.assert_array_equal(loaded.values, spec.values)
        assert loaded.meta == spec.meta

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("h1,h2\n1.0,2.0\n1.0,oops\n")
        with pytest.raises(InputFormatError, match="line 3"):
            load_panel_csv(path)

    def test_ragged_rows_detected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("h\n1.0,2.0\n1.0\n")
        with pytest.raises(InputFormatError, match="line 3"):
            load_panel_csv(path)

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "load, text, column",
        [(load_panel_csv, "h1,h2\n1.0,2.0\n3.0,{}\n", 2), (load_timeseries_csv, "t,x\n0,1.0\n1,{}\n", 2)],
        ids=["panel", "timeseries"],
    )
    def test_non_finite_field_names_line_and_column(self, tmp_path, load, text, column, field):
        path = tmp_path / "bad.csv"
        path.write_text(text.format(field))
        with pytest.raises(InputFormatError, match=f"line 3: column {column} is not finite"):
            load(path)

    def test_timeseries_index_must_be_sequential(self, tmp_path):
        path = tmp_path / "ts.csv"
        path.write_text("t,x\n0,1.0\n2,2.0\n")
        with pytest.raises(InputFormatError, match="line 3"):
            load_timeseries_csv(path)


class TestCcaCommand:
    def test_golden_regression(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli(
            ["cca", "--u", str(DATA / "panel_u_3x20.csv"), "--v", str(DATA / "panel_v_4x20.csv"),
             "--output", str(out)],
            tmp_path,
        )
        assert code == 0
        assert out.read_text() == (DATA / "golden_cca_3x20.json").read_text()

    def test_golden_file_is_a_canonical_system(self):
        # vouches for the pinned bytes without the kernel that wrote them
        doc = json.loads((DATA / "golden_cca_3x20.json").read_text())
        U, V = load_panel_csv(DATA / "panel_u_3x20.csv"), load_panel_csv(DATA / "panel_v_4x20.csv")
        corr_sq = np.array(doc["correlations_sq"])
        np.testing.assert_allclose(corr_sq, sample_cca_projector_oracle(U, V).values, rtol=0, atol=1e-12)
        assert doc["spectrum"]["values"] == doc["correlations_sq"]
        u = U.values.T @ np.array(doc["alphas"]).T
        v = V.values.T @ np.array(doc["betas"]).T
        np.testing.assert_allclose(u.T @ u, np.eye(U.rows), rtol=0, atol=1e-12)
        np.testing.assert_allclose(v.T @ v, np.eye(V.rows), rtol=0, atol=1e-12)
        cross = np.zeros((U.rows, V.rows))
        np.fill_diagonal(cross, np.sqrt(corr_sq))
        np.testing.assert_allclose(u.T @ v, cross, rtol=0, atol=1e-12)

    def test_proportional_rows_give_unit_correlation(self, tmp_path):
        u, v = tmp_path / "u.csv", tmp_path / "v.csv"
        u.write_text("a,b,c\n1.0,2.0,3.0\n")
        v.write_text("a,b,c\n2.0,4.0,6.0\n")
        out = tmp_path / "r.json"
        assert run_cli(["cca", "--u", str(u), "--v", str(v), "--output", str(out)], tmp_path) == 0
        doc = json.loads(out.read_text())
        assert doc["correlations_sq"][0] == pytest.approx(1.0, abs=1e-12)

    def test_mismatched_columns_exit_code(self, tmp_path, capsys):
        u, v = tmp_path / "u.csv", tmp_path / "v.csv"
        u.write_text("a,b,c\n1.0,2.0,3.0\n")
        v.write_text("a,b\n2.0,4.0\n")
        assert run_cli(["cca", "--u", str(u), "--v", str(v)], tmp_path) == 2
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "DimensionMismatch"

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            run_cli(
                ["cca", "--u", str(DATA / "panel_u_3x20.csv"), "--v", str(DATA / "panel_v_4x20.csv"),
                 "--output", str(out)],
                tmp_path,
            )
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "command", [["cca"], ["independence", "--regime", "small", "--nsamples", "200"]], ids=["cca", "independence"]
    )
    def test_report_is_a_function_of_its_inputs(self, tmp_path, command):
        # a report holds no wall-clock time, so the same argv writes the same bytes on every run
        u, v = small_panels(tmp_path)
        out = tmp_path / "r.json"
        argv = [*command, "--u", str(u), "--v", str(v), "--output", str(out)]
        reports = []
        for _ in range(2):
            assert run_cli(argv, tmp_path) in (0, 3)
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert "timestamp" not in json.loads(reports[0])

    def test_spectrum_block_loads_as_a_spectrum_file(self, tmp_path):
        out, spec = tmp_path / "report.json", tmp_path / "spec.json"
        run_cli(
            ["cca", "--u", str(DATA / "panel_u_3x20.csv"), "--v", str(DATA / "panel_v_4x20.csv"),
             "--output", str(out)],
            tmp_path,
        )
        doc = json.loads(out.read_text())
        spec.write_text(json.dumps(doc["spectrum"]))
        loaded = load_spectrum_json(spec)
        assert loaded.values.tolist() == doc["correlations_sq"]
        assert loaded.meta == {"K": 3, "M": 4, "S": 20}


class TestHistogramCommand:
    def _spectrum_file(self, tmp_path):
        rng = np.random.default_rng(0)
        from hdcca.cca_core import sample_cca

        U = DataPanel(rng.standard_normal((100, 500)))
        V = DataPanel(rng.standard_normal((150, 500)))
        spec = Spectrum(sample_cca(U, V).correlations_sq, meta={"K": 100, "M": 150, "S": 500})
        path = tmp_path / "spec.json"
        save_spectrum_json(path, spec)
        return path, spec

    def test_area_normalization_and_overlay_support(self, tmp_path):
        path, spec = self._spectrum_file(tmp_path)
        out = tmp_path / "hist.csv"
        code = run_cli(
            ["histogram", "--spectrum", str(path), "--tau-k", "5", "--tau-m", "3.3333333333333335",
             "--bins", "50", "--output", str(out)],
            tmp_path,
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        centers = np.array([float(r[0]) for r in rows])
        emp = np.array([float(r[1]) for r in rows])
        overlay = np.array([float(r[2]) for r in rows])
        width = centers[1] - centers[0]
        assert abs(np.sum(emp) * width - 1.0) < 1e-9
        params = WachterParams(5.0, 10.0 / 3.0)
        lo, hi = support(params)
        outside = (centers < lo) | (centers > hi)
        np.testing.assert_array_equal(overlay[outside], 0.0)
        # the bulk of the mass sits inside the support band
        inside_mass = np.sum(emp[~outside]) * width
        assert inside_mass > 0.9

    def test_coint_tau_overlays_the_matched_ratio_pair(self, tmp_path):
        path = tmp_path / "spec.json"
        save_spectrum_json(path, Spectrum(np.array([0.6, 0.3, 0.1])))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        common = ["histogram", "--spectrum", str(path), "--bins", "10", "--output"]
        assert run_cli([*common, str(a), "--coint-tau", "3"], tmp_path) == 0
        assert run_cli([*common, str(b), "--tau-k", "4", "--tau-m", "2"], tmp_path) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_overlay_parameters(self, tmp_path):
        path, _ = self._spectrum_file(tmp_path)
        assert run_cli(["histogram", "--spectrum", str(path)], tmp_path) == 2

    @pytest.mark.parametrize("ratios", [["--tau-k", "4"], ["--tau-m", "2"]], ids=["tau-k", "tau-m"])
    def test_coint_tau_with_a_ratio_is_refused(self, tmp_path, capsys, ratios):
        # --coint-tau no longer wins silently over a ratio given next to it
        path, out = tmp_path / "spec.json", tmp_path / "h.csv"
        save_spectrum_json(path, Spectrum(np.array([0.6, 0.3, 0.1])))
        argv = ["histogram", "--spectrum", str(path), "--coint-tau", "3", *ratios, "--output", str(out)]
        assert run_cli(argv, tmp_path) == 2
        assert error_of(capsys)["error"] == "InputFormatError"
        assert not out.exists()


class TestPipelines:
    def test_simulate_then_coint_small_null(self, tmp_path):
        ts = tmp_path / "ts.csv"
        assert run_cli(
            ["simulate", "var1", "--k", "2", "--t", "400", "--seed", "3", "--output", str(ts)],
            tmp_path,
        ) == 0
        out = tmp_path / "rep.json"
        code = run_cli(
            ["coint", "--input", str(ts), "--regime", "small", "--r", "1",
             "--nsamples", "1500", "--output", str(out)],
            tmp_path,
        )
        doc = json.loads(out.read_text())
        assert code in (0, 3)
        assert (code == 3) == (doc["decision"] == "reject")

    def test_simulate_rank_one_then_coint_rejects(self, tmp_path):
        ts = tmp_path / "ts.csv"
        run_cli(
            ["simulate", "var1", "--k", "2", "--t", "600", "--pi-rank", "1", "--pi-scale", "-0.5",
             "--seed", "4", "--output", str(ts)],
            tmp_path,
        )
        code = run_cli(
            ["coint", "--input", str(ts), "--regime", "small", "--r", "1",
             "--nsamples", "1500"],
            tmp_path,
        )
        assert code == 3

    def test_deterministic_coint_report(self, tmp_path):
        ts = tmp_path / "ts.csv"
        run_cli(["simulate", "var1", "--k", "2", "--t", "300", "--seed", "5", "--output", str(ts)], tmp_path)
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run_cli(
                ["coint", "--input", str(ts), "--regime", "small", "--r", "1", "--seed", "8",
                 "--nsamples", "1000", "--output", str(out)],
                tmp_path,
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("value", ["-1e-3", "-.5E+0"])
    def test_negative_exponent_form_is_an_option_value(self, tmp_path, value):
        # argparse's own matcher takes "-1e-3" for an option name: "--pi-scale: expected one argument"
        argv = ["simulate", "var1", "--k", "2", "--t", "50", "--pi-rank", "1", "--seed", "3"]
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        assert run_cli([*argv, "--pi-scale", value, "--output", str(spaced)], tmp_path) == 0
        assert run_cli([*argv, f"--pi-scale={value}", "--output", str(joined)], tmp_path) == 0
        assert spaced.read_bytes() == joined.read_bytes()

    def test_negative_infinity_reaches_the_value_check(self, tmp_path, capsys):
        argv = ["simulate", "var1", "--k", "2", "--t", "50", "--pi-rank", "1", "--pi-scale", "-inf"]
        assert run_cli([*argv, "--output", str(tmp_path / "ts.csv")], tmp_path) == 2
        assert error_of(capsys)["error"] == "InvalidParams"

    def test_explosive_series_that_stays_finite(self, tmp_path, capsys):
        # I + pi has eigenvalue 6: 6^300 ~ 1e233 is finite, and no scan power past T is formed
        argv = ["simulate", "var1", "--k", "2", "--t", "300", "--pi-rank", "1", "--pi-scale", "5"]
        assert run_cli([*argv, "--output", str(tmp_path / "ts.csv")], tmp_path) == 0
        assert capsys.readouterr().err == ""
        assert np.abs(load_timeseries_csv(tmp_path / "ts.csv").X).max() > 1e200

    def test_tabulate_round_trip(self, tmp_path, capsys):
        store = ["--nsamples", "2000", "--seed", "7"]
        assert run_cli(["tabulate", "laguerre-max", "--k", "2", "--m", "3", *store], tmp_path) == 0
        stored = Path(capsys.readouterr().out.strip())
        table = QuantileTable.load(stored)
        assert table.params == {"K": 2, "M": 3}
        u, v, out = tmp_path / "u.csv", tmp_path / "v.csv", tmp_path / "r.json"
        run_cli(
            ["simulate", "panels", "--k", "2", "--m", "3", "--s", "200", "--seed", "8",
             "--output-u", str(u), "--output-v", str(v)],
            tmp_path,
        )
        code = run_cli(
            ["independence", "--u", str(u), "--v", str(v), "--regime", "small", *store, "--output", str(out)],
            tmp_path,
        )
        assert code in (0, 3)
        assert json.loads(out.read_text())["threshold"] == table.threshold_for(0.95)
        assert list((tmp_path / "cache").iterdir()) == [stored]

    def test_planted_signal_pipeline_rejects(self, tmp_path):
        u, v = tmp_path / "u.csv", tmp_path / "v.csv"
        run_cli(
            ["simulate", "panels", "--k", "2", "--m", "3", "--s", "1200", "--rho2", "0.25",
             "--seed", "9", "--output-u", str(u), "--output-v", str(v)],
            tmp_path,
        )
        code = run_cli(
            ["independence", "--u", str(u), "--v", str(v), "--regime", "small",
             "--nsamples", "4000"],
            tmp_path,
        )
        assert code == 3

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hdcca", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "cca" in proc.stdout

    def test_import_leaves_scipy_interpolate_out(self):
        # no part of scipy at all: hdcca needs numpy alone at run time
        for module in ("hdcca.cli", "hdcca"):
            code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == "[]", module

    def test_wachter_law_and_histogram_leave_scipy_out(self, tmp_path):
        spec = tmp_path / "spec.json"
        save_spectrum_json(spec, Spectrum(np.array([0.5, 0.3, 0.2])))
        code = (
            "import sys\n"
            "from hdcca import wachter\n"
            "from hdcca.cli import main\n"
            "p = wachter.WachterParams(5.0, 3.0)\n"
            "wachter.cdf([0.1, 0.4], p), wachter.ppf([0.0, 0.5, 1.0], p)\n"
            "wachter.ks_distance(wachter.Spectrum([0.5, 0.3, 0.2]), p)\n"
            f"assert main(['histogram', '--spectrum', {str(spec)!r}, '--tau-k', '5', '--tau-m', '3',\n"
            f"             '--bins', '5', '--output', {str(tmp_path / 'h.csv')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_runtime_needs_numpy_alone(self):
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).parent.parent
        deps = tomllib.loads((root / "pyproject.toml").read_text())["project"]["dependencies"]
        assert [re.match(r"[\w.-]+", d).group() for d in deps] == ["numpy"]
        for path in sorted((root / "src" / "hdcca").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not any(n.split(".")[0] == "scipy" for n in names), path.name

    def test_every_raise_is_an_hdcca_error(self):
        # every exception hdcca raises derives from HdccaError; SystemExit only in __main__ guards
        src = Path(__file__).parent.parent / "src" / "hdcca"
        errors = {n.name for n in ast.parse((src / "errors.py").read_text()).body if isinstance(n, ast.ClassDef)}
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text())
            guarded = {
                id(node)
                for guard in ast.walk(tree)
                if isinstance(guard, ast.If) and ast.unparse(guard.test) == "__name__ == '__main__'"
                for node in ast.walk(guard)
            }
            for node in ast.walk(tree):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue  # a bare raise re-raises what it caught
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
                allowed = name in errors or (name == "SystemExit" and id(node) in guarded)
                assert allowed, f"{path.name}, line {node.lineno}: raises {name}"

    def test_missing_tabulate_dimensions_exit_code(self, tmp_path, capsys):
        code = run_cli(
            ["tabulate", "laguerre-max", "--nsamples", "100"],
            tmp_path,
        )
        assert code == 2

    def test_histogram_bin_floor_exit_code(self, tmp_path):
        path = tmp_path / "spec.json"
        save_spectrum_json(path, Spectrum(np.array([0.5, 0.2])))
        code = run_cli(
            ["histogram", "--spectrum", str(path), "--tau-k", "5", "--tau-m", "3.4", "--bins", "3"],
            tmp_path,
        )
        assert code == 2


def error_of(capsys) -> dict:
    """The one-line error document main() wrote to stderr."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["schema"] == "hdcca.error/1"
    return doc


def small_panels(tmp_path):
    u, v = tmp_path / "u.csv", tmp_path / "v.csv"
    assert run_cli(
        ["simulate", "panels", "--k", "2", "--m", "3", "--s", "100",
         "--output-u", str(u), "--output-v", str(v)],
        tmp_path,
    ) == 0
    return u, v


class TestTableStore:
    TABULATE_23 = ["tabulate", "laguerre-max", "--k", "2", "--m", "3", "--nsamples", "200"]
    PINNED_NAME = "laguerre_max-ca1a652a6e5ad2f555143ce4.json"
    BROWNIAN_PINNED_NAME = "brownian_coint-12bca572fa253ba1d54edd8d.json"

    def test_tables_of_different_dimensions_get_different_files(self, tmp_path):
        assert run_cli(self.TABULATE_23, tmp_path) == 0
        assert run_cli(
            ["tabulate", "laguerre-max", "--k", "3", "--m", "5", "--nsamples", "200"], tmp_path
        ) == 0
        assert len(list((tmp_path / "cache").iterdir())) == 2

    def test_file_name_is_the_identity_digest(self, tmp_path, capsys):
        # K=2, M=3, nsamples 200, seed 0 (stream 0): pinned, because a change to the
        # digest leaves every stored table unread.
        argv = [*self.TABULATE_23, "--seed", "0"]
        assert run_cli(argv, tmp_path) == 0
        path = Path(capsys.readouterr().out.strip())
        assert path.name == self.PINNED_NAME
        assert path.parent == tmp_path / "cache"

    def test_airy_table_keeps_its_name_and_bytes(self, tmp_path, capsys):
        # the file `tabulate --statistic airy1-sum` stored before the statistic became the kind
        assert run_cli(["tabulate", "airy1-sum", "--nsamples", "100"], tmp_path) == 0
        path = Path(capsys.readouterr().out.strip())
        assert path.name == "airy1_sum-f4064e9e8d8cf54078e56a4d.json"
        assert path.read_bytes() == (DATA / path.name).read_bytes()

    def test_a_table_is_the_same_bytes_whichever_command_builds_it(self, tmp_path, capsys):
        # a table records no build time, so `tabulate` and a test store one file, byte for byte
        assert main([*self.TABULATE_23, "--table-cache-dir", str(tmp_path / "by-tabulate")]) == 0
        tabulated = Path(capsys.readouterr().out.strip())
        u, v = small_panels(tmp_path)
        argv = ["independence", "--u", str(u), "--v", str(v), "--regime", "small", "--nsamples", "200"]
        assert run_cli([*argv, "--output", str(tmp_path / "r.json")], tmp_path) in (0, 3)
        [tested] = (tmp_path / "cache").iterdir()
        assert tested.name == tabulated.name == self.PINNED_NAME
        assert tested.read_bytes() == tabulated.read_bytes()

    def test_brownian_file_name_is_the_identity_digest(self, tmp_path, capsys):
        # K=2, r=1, nsamples 200, seed 0 (stream 0): pinned like the Laguerre name above
        argv = ["tabulate", "brownian-coint", "--k", "2", "--nsamples", "200", "--seed", "0"]
        assert run_cli(argv, tmp_path) == 0
        assert Path(capsys.readouterr().out.strip()).name == self.BROWNIAN_PINNED_NAME

    @pytest.mark.parametrize(
        "tabulate, test",
        [
            (["laguerre-max", "--k", "2", "--m", "3"],
             ["independence", "--u", "{u}", "--v", "{v}", "--regime", "small"]),
            (["brownian-coint", "--k", "2"], ["coint", "--input", "{ts}", "--regime", "small"]),
            (["airy1-sum", "--nsamples", "100"],
             ["coint", "--input", "{ts}", "--regime", "large", "--nsamples", "100"]),
        ],
        ids=["laguerre-max", "brownian-coint", "airy1-sum"],
    )
    def test_omitted_options_name_the_table_tabulate_stores(self, tmp_path, capsys, tabulate, test):
        # a test given no --nsamples or --seed reads the table of tabulate's defaults
        # (10,000 draws, seed 0, stream 0, sim_size 100) and builds no other
        u, v = small_panels(tmp_path)
        ts = tmp_path / "ts.csv"
        assert run_cli(["simulate", "var1", "--k", "2", "--t", "50", "--output", str(ts)], tmp_path) == 0
        assert run_cli(["tabulate", *tabulate], tmp_path) == 0
        stored = Path(capsys.readouterr().out.strip())
        assert run_cli([a.format(u=u, v=v, ts=ts) for a in test], tmp_path) in (0, 3)
        assert list((tmp_path / "cache").iterdir()) == [stored]

    def test_tabulate_prewarms_the_independence_table(self, tmp_path, capsys, monkeypatch):
        assert run_cli(self.TABULATE_23, tmp_path) == 0
        table = QuantileTable.load(capsys.readouterr().out.strip())
        u, v = small_panels(tmp_path)
        before = sorted((tmp_path / "cache").iterdir())

        def no_rebuild(*args):
            raise AssertionError("the stored table was built again")

        monkeypatch.setattr(hyptest, "tabulate_laguerre_max", no_rebuild)
        out = tmp_path / "report.json"
        code = run_cli(
            ["independence", "--u", str(u), "--v", str(v), "--regime", "small", "--nsamples", "200",
             "--output", str(out)],
            tmp_path,
        )
        assert code in (0, 3)
        assert sorted((tmp_path / "cache").iterdir()) == before
        assert json.loads(out.read_text())["threshold"] == table.threshold_for(0.95)

    def test_one_table_serves_every_level(self, tmp_path):
        u, v = small_panels(tmp_path)
        test = ["independence", "--u", str(u), "--v", str(v), "--regime", "small", "--nsamples", "200"]
        assert run_cli(test, tmp_path) in (0, 3)
        [stored] = (tmp_path / "cache").iterdir()
        out = tmp_path / "report.json"
        assert run_cli([*test, "--alpha", "0.975", "--output", str(out)], tmp_path) in (0, 3)
        assert list((tmp_path / "cache").iterdir()) == [stored]
        draws = QuantileTable.load(stored).draws
        assert json.loads(out.read_text())["threshold"] == np.quantile(draws, 0.975)

    @pytest.mark.parametrize(
        "simulate, test",
        [
            (["panels", "--k", "50", "--m", "60", "--s", "300",
              "--output-u", "{dir}/u.csv", "--output-v", "{dir}/v.csv"],
             ["independence", "--u", "{dir}/u.csv", "--v", "{dir}/v.csv"]),
            (["var1", "--k", "10", "--t", "100", "--output", "{dir}/ts.csv"],
             ["coint", "--input", "{dir}/ts.csv", "--r", "2"]),
        ],
        ids=["independence", "coint"],
    )
    def test_large_regime_reads_its_stored_table(self, tmp_path, simulate, test):
        simulate, test = ([a.format(dir=tmp_path) for a in argv] for argv in (simulate, test))
        assert run_cli(["simulate", *simulate], tmp_path) == 0
        out = tmp_path / "report.json"
        argv = [*test, "--regime", "large", "--nsamples", "200", "--output", str(out)]
        assert run_cli(argv, tmp_path) in (0, 3)
        doc = json.loads(out.read_text())
        assert doc["schema"] == "hdcca.report/1"
        [table] = (tmp_path / "cache").iterdir()
        assert doc["threshold"] == QuantileTable.load(table).threshold_for(0.95)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc.update(statistic_id="BROWNIAN_COINT"),
            lambda doc: doc["params"].update(M=4),
            lambda doc: doc["draws"].pop(),
            lambda doc: doc["seed"].update(value=1),
        ],
        ids=["statistic", "params", "nsamples", "seed"],
    )
    def test_edited_identity_raises_table_mismatch(self, tmp_path, capsys, edit):
        assert run_cli(self.TABULATE_23, tmp_path) == 0
        path = Path(capsys.readouterr().out.strip())
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        u, v = small_panels(tmp_path)
        code = run_cli(
            ["independence", "--u", str(u), "--v", str(v), "--regime", "small", "--nsamples", "200"], tmp_path
        )
        assert code == 2
        err = error_of(capsys)
        assert err["error"] == "TableMismatch"
        assert str(path) in err["message"]


# Each command or kind, called so that it succeeds, and the options it does not read.
UNREAD_BASE = {
    "cca": ["cca", "--u", "{u}", "--v", "{v}", "--output", "{out}/cca.json"],
    "independence": ["independence", "--u", "{u}", "--v", "{v}", "--regime", "small", "--nsamples", "50",
                     "--table-cache-dir", "{cache}", "--output", "{out}/r.json"],
    "coint": ["coint", "--input", "{ts}", "--regime", "small", "--nsamples", "50", "--table-cache-dir", "{cache}",
              "--output", "{out}/r.json"],
    "histogram": ["histogram", "--spectrum", "{spec}", "--tau-k", "5", "--tau-m", "3", "--output", "{out}/h.csv"],
    "simulate panels": ["simulate", "panels", "--k", "2", "--m", "3", "--s", "20",
                        "--output-u", "{out}/u.csv", "--output-v", "{out}/v.csv"],
    "simulate var1": ["simulate", "var1", "--k", "2", "--t", "10", "--output", "{out}/ts.csv"],
    "tabulate laguerre-max": ["tabulate", "laguerre-max", "--k", "2", "--m", "3", "--nsamples", "50",
                              "--table-cache-dir", "{cache}"],
    "tabulate airy1-sum": ["tabulate", "airy1-sum", "--nsamples", "50", "--table-cache-dir", "{cache}"],
    "tabulate brownian-coint": ["tabulate", "brownian-coint", "--k", "2", "--nsamples", "50",
                                "--table-cache-dir", "{cache}"],
}
UNREAD = {
    "cca": ["--seed", "--stream", "--table-cache-dir", "--no-timestamp"],
    "independence": ["--table", "--stream", "--sim-size", "--no-timestamp"],
    "coint": ["--table", "--stream", "--sim-size", "--no-timestamp"],
    "histogram": ["--seed", "--stream", "--no-timestamp", "--table-cache-dir"],
    "simulate panels": ["--t", "--pi-rank", "--pi-scale", "--pi-corner", "--output", "--no-timestamp",
                        "--table-cache-dir", "--stream"],
    "simulate var1": ["--m", "--s", "--rho2", "--output-u", "--output-v", "--no-timestamp", "--table-cache-dir",
                      "--stream", "--pi-corner"],
    "tabulate laguerre-max": ["--r", "--sim-size", "--output", "--stream", "--no-timestamp"],
    "tabulate airy1-sum": ["--k", "--m", "--sim-size", "--output", "--stream", "--no-timestamp"],
    "tabulate brownian-coint": ["--m", "--sim-size", "--output", "--stream", "--no-timestamp"],
}
UNREAD_VALUES = {
    "--no-timestamp": [], "--pi-corner": [], "--table-cache-dir": ["{cache}"], "--output": ["{out}/x"],
    "--output-u": ["{out}/u2.csv"], "--output-v": ["{out}/v2.csv"], "--rho2": ["0.5"], "--pi-scale": ["-1"],
    "--table": ["{out}/table.json"],
}
UNREAD_CASES = [
    *((command, [option, *UNREAD_VALUES.get(option, ["2"])], "InputFormatError")
      for command, options in UNREAD.items() for option in options),
    ("histogram", ["--coint-tau", "3"], "InputFormatError"),  # a ratio pair and --coint-tau together
]

class TestBadInput:
    """Each bad input exits 2 with one line of hdcca.error/1 JSON on stderr."""

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["simulate", "var1", "--k", "2", "--t", "10", "--seed", "-1"], "ParameterRange"),
            (["simulate", "panels", "--k", "2", "--m", "3", "--s", "20", "--rho2", "x"], "InputFormatError"),
            (["simulate", "panels", "--k", "2", "--m", "3", "--s", "20", "--rho2", "1.5"], "ParameterRange"),
            (["tabulate", "laguerre-max", "--k", "2", "--m", "3", "--nsamples", "0"],
             "InvalidParams"),
            (["tabulate", "airy1-sum", "--nsamples", "0"], "InvalidParams"),
            (["tabulate", "brownian-coint", "--k", "2", "--nsamples", "0"], "InvalidParams"),
            (["tabulate", "laguerre-max", "--k", "2", "--m", "3", "--nsamples", "-1"],
             "InvalidParams"),
            (["tabulate", "airy1-sum", "--nsamples", "-1"], "InvalidParams"),
            (["tabulate", "brownian-coint", "--k", "2", "--nsamples", "-1"], "InvalidParams"),
            (["independence", "--regime", "small", "--nsamples", "-1"], "InvalidParams"),
            (["simulate", "var1", "--k", "2", "--t", "5", "--seed", "x"], "InputFormatError"),
            (["tabulate", "laguerre-max", "--k", "2", "--m", "3", "--nsamples", "x"],
             "InputFormatError"),
            (["independence"], "InputFormatError"),
            (["independence", "--regime", "small", "--alpha", "1.5"], "InvalidParams"),
            (["histogram", "--tau-k", "5", "--tau-m", "3.4", "--bins", "3"], "InvalidParams"),
            (["histogram", "--tau-k", "5", "--tau-m", "3.4", "--bins", "0"], "InvalidParams"),
            (["histogram", "--tau-k", "5", "--tau-m", "3.4", "--bins", "100000000000"], "InvalidParams"),
            (["cca", "--output", "{dir}"], "IsADirectoryError"),
            (["simulate", "var1", "--k", "2", "--t", "5", "--output", "{dir}"], "IsADirectoryError"),
            (["histogram", "--tau-k", "5", "--tau-m", "3.4", "--output", "{dir}"], "IsADirectoryError"),
            (["tabulate", "laguerre-max", "--k", "2", "--m", "3", "--nsamples", "50",
              "--table-cache-dir", "{file}/t"], "NotADirectoryError"),
            (["tabulate", "laguerre-max", "--k", "2", "--m", "3", "--nsamples", "50",
              "--table-cache-dir", "{file}"], "FileExistsError"),
            (["simulate", "panels", "--k", "2", "--m", "3", "--s", "-5"], "DimensionMismatch"),
            (["simulate", "var1", "--k", "-1", "--t", "10"], "DimensionMismatch"),
            (["simulate", "var1", "--k", "0", "--t", "10"], "DimensionMismatch"),
            (["simulate", "var1", "--k", "3", "--t", "10", "--pi-rank", "1", "--pi-scale", "0"],
             "InvalidParams"),
            (["simulate", "var1", "--k", "3", "--t", "10", "--pi-rank", "1", "--pi-scale", "nan"],
             "InvalidParams"),
            (["simulate", "var1", "--k", "3", "--t", "10", "--pi-rank", "1", "--pi-scale", "inf"],
             "InvalidParams"),
            (["cca", "--tol", "nan"], "InvalidParams"),
            (["cca", "--tol", "-1"], "InvalidParams"),
            (["simulate", "var1", "--k", "2", "--t", "2000", "--pi-rank", "1", "--pi-scale", "5"],
             "InvalidParams"),
            (["tabulate", "airy1-sum", "--r", "0"], "InvalidParams"),
            (["coint", "--regime", "small", "--input", "{tmp}/t.csv"], "InputFormatError"),
            (["tabulate", "laguerre-max", "--k", "3", "--m", "2"], "InvalidParams"),
            (["tabulate", "brownian-coint", "--k", "2", "--r", "3"], "InvalidParams"),
            (["simulate", "panels", "--k", "1", "--m", "1", "--s", "10", "--rho2", "0.5,0.5"], "DimensionMismatch"),
            (["histogram", "--tau-k", "inf", "--tau-m", "3"], "InvalidParams"),
            (["histogram", "--tau-k", "5", "--tau-m", "3", "--spectrum", "{tmp}/high.json"], "InputFormatError"),
            (["histogram", "--tau-k", "5", "--tau-m", "3", "--spectrum", "{tmp}/ascending.json"], "InputFormatError"),
            (["simulate", "var1", "--k", "2", "--t", "1"], "DimensionMismatch"),
            (["simulate", "var1", "--k", "2", "--t", "10", "--pi-rank", "3"], "DimensionMismatch"),
            # shapes past numpy's largest array, so that nothing is allocated
            (["simulate", "panels", "--k", "10000000000", "--m", "1", "--s", "10000000000"], "InvalidParams"),
            (["simulate", "var1", "--k", "10000000000", "--t", "10"], "InvalidParams"),
            (["simulate", "var1", "--k", "3", "--t", str(2**62)], "InvalidParams"),
        ],
        ids=["seed", "rho2-text", "rho2-range",
             "nsamples-laguerre", "nsamples-airy", "nsamples-brownian",
             "negative-nsamples-laguerre", "negative-nsamples-airy", "negative-nsamples-brownian",
             "negative-nsamples-independence", "seed-text", "nsamples-text", "no-regime",
             "alpha-range", "bins-floor", "zero-bins", "bins-ceiling", "cca-output-dir", "simulate-output-dir",
             "histogram-output-dir",
             "tabulate-output-under-file", "cache-dir-is-file",
             "negative-s", "negative-k", "zero-k", "zero-pi-scale",
             "nan-pi-scale", "inf-pi-scale", "nan-tol", "negative-tol", "explosive-var", "airy-r-zero",
             "series-without-variables", "laguerre-k-above-m", "brownian-r-above-k", "rho2-count-above-min-k-m",
             "infinite-tau", "spectrum-above-one", "ascending-spectrum", "horizon-one", "pi-rank-above-k",
             "panels-past-numpy-max", "pi-past-numpy-max", "series-past-numpy-max"],
    )
    def test_argument(self, tmp_path, capsys, argv, error):
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("")
        (tmp_path / "t.csv").write_text("t\n0\n1\n2\n")
        for name, values in (("high", [1.5, 0.2]), ("ascending", [0.2, 0.5])):
            (tmp_path / f"{name}.json").write_text(json.dumps({"schema": SPECTRUM_SCHEMA, "values": values}))
        argv = [a.format(dir=tmp_path / "dir", file=tmp_path / "file", tmp=tmp_path) for a in argv]
        if argv[0] == "simulate":
            outputs = ["--output"] if argv[1] == "var1" else ["--output-u", "--output-v"]
            argv = [*argv, *(f"{o}={tmp_path / o.lstrip('-')}" for o in outputs if o not in argv)]
        if argv[0] in ("independence", "cca"):
            u, v = small_panels(tmp_path)
            argv = [*argv, "--u", str(u), "--v", str(v)]
        if argv[0] == "histogram" and "--spectrum" not in argv:
            save_spectrum_json(tmp_path / "spec.json", Spectrum(np.array([0.5, 0.2])))
            argv = [*argv, "--spectrum", str(tmp_path / "spec.json")]
        code = main(argv) if "--table-cache-dir" in argv else run_cli(argv, tmp_path)
        assert code == 2
        assert error_of(capsys)["error"] == error

    @pytest.mark.parametrize("alpha", ["1.5", "0", "nan"])
    @pytest.mark.parametrize(
        "command",
        [["independence", "--regime", "small", "--u", "{missing}", "--v", "{missing}"],
         ["coint", "--regime", "large", "--input", "{missing}"]],
        ids=["independence", "coint"],
    )
    def test_bad_level_fails_before_any_work(self, tmp_path, capsys, command, alpha):
        missing, cache = tmp_path / "missing.csv", tmp_path / "cache"
        cache.mkdir()
        argv = [*(a.format(missing=missing) for a in command), "--alpha", alpha]
        assert main([*argv, "--table-cache-dir", str(cache)]) == 2
        err = error_of(capsys)
        assert err["error"] == "InvalidParams"
        assert "alpha must lie in (0, 1)" in err["message"]
        assert not any(cache.iterdir())

    @pytest.mark.parametrize("alpha", ["0.05", "0.5"])
    @pytest.mark.parametrize(
        "command",
        [["independence", "--regime", "small", "--u", "{missing}", "--v", "{missing}"],
         ["coint", "--regime", "large", "--input", "{missing}"]],
        ids=["independence", "coint"],
    )
    def test_level_at_or_below_one_half_fails_before_any_work(self, tmp_path, capsys, command, alpha):
        # --alpha is the confidence level: --alpha 0.05 would run a test of size 0.95
        missing, cache = tmp_path / "missing.csv", tmp_path / "cache"
        cache.mkdir()
        argv = [*(a.format(missing=missing) for a in command), "--alpha", alpha]
        assert main([*argv, "--table-cache-dir", str(cache)]) == 2
        err = error_of(capsys)
        assert err["error"] == "InvalidParams"
        assert err["message"] == f"alpha is the confidence level 1 - size, got {alpha}"
        assert not any(cache.iterdir())

    VAR1_K60 = ["var1", "--k", "60", "--t", "100", "--output", "{dir}/ts.csv"]
    VAR1_K3 = ["var1", "--k", "3", "--t", "100", "--seed", "1", "--output", "{dir}/ts.csv"]
    PANELS_40_50_80 = ["panels", "--k", "40", "--m", "50", "--s", "80",
                       "--output-u", "{dir}/u.csv", "--output-v", "{dir}/v.csv"]
    COINT = ["coint", "--input", "{dir}/ts.csv"]
    INDEPENDENCE = ["independence", "--u", "{dir}/u.csv", "--v", "{dir}/v.csv"]

    @pytest.mark.parametrize(
        "simulate, test, error, message",
        [
            (VAR1_K60, [*COINT, "--regime", "small"], "TooFewObservations", "K + M = 120 > S = 100"),
            (VAR1_K3, [*COINT, "--regime", "large", "--r", "5"], "DimensionMismatch", "0 <= r <= 3, got 5"),
            (PANELS_40_50_80, [*INDEPENDENCE, "--regime", "large"], "InvalidRegime", "plug-in ratios"),
            (VAR1_K60, [*COINT, "--regime", "large"], "InvalidRegime", "need T > 2K, got K=60, T=100"),
            (PANELS_40_50_80, [*INDEPENDENCE, "--regime", "small"], "TooFewObservations", "K + M = 90 > S = 80"),
            (VAR1_K3, [*COINT, "--regime", "small", "--r", "5"], "DimensionMismatch", "0 <= r <= 3, got 5"),
            (VAR1_K3, [*COINT, "--regime", "large", "--r", "0"], "InvalidParams", "need 1 <= r <= sim_size, got r=0"),
        ],
        ids=["coint-small-t-below-2k", "coint-large-rank-above-k", "independence-large-outside-region",
             "coint-large-t-below-2k", "independence-small-k-plus-m-above-s", "coint-small-rank-above-k",
             "coint-large-rank-zero"],
    )
    def test_bad_input_builds_no_table(self, tmp_path, capsys, simulate, test, error, message):
        # the test checks its input before it asks for a table, so nothing is tabulated or stored
        simulate, test = ([a.format(dir=tmp_path) for a in argv] for argv in (simulate, test))
        cache = tmp_path / "cache"
        cache.mkdir()
        assert run_cli(["simulate", *simulate], tmp_path) == 0
        assert run_cli([*test, "--nsamples", "200"], tmp_path) == 2
        err = error_of(capsys)
        assert err["error"] == error
        assert message in err["message"]
        assert not any(cache.iterdir())

    @pytest.mark.parametrize("regime", ["small", "large"])
    def test_finite_series_whose_increments_overflow(self, tmp_path, capsys, regime):
        # every entry is finite but the increment -2e308 is not: one error line, and numpy's warning stays inside
        ts = tmp_path / "ts.csv"
        ts.write_text("t,x0,x1\n0,1e308,0\n1,-1e308,1\n2,1e308,0\n3,0,2\n4,1,3\n5,2,1\n6,0,0\n7,3,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["coint", "--input", str(ts), "--regime", regime, "--nsamples", "50"], tmp_path) == 2
        err = error_of(capsys)
        assert err["error"] == "DimensionMismatch"
        assert err["message"] == "the increments or detrended levels of the series overflow the float range"

    def test_grid_option_is_gone(self, tmp_path, capsys):
        # the series sampler has no grid, so the Brownian table has no grid option
        argv = ["coint", "--input", str(tmp_path / "ts.csv"), "--regime", "small", "--n-grid", "100"]
        assert run_cli(argv, tmp_path) == 2
        err = error_of(capsys)
        assert err["error"] == "InputFormatError"
        assert "unrecognized arguments: --n-grid 100" in err["message"]

    def test_statistic_option_is_gone(self, tmp_path, capsys):
        # the statistic is the positional kind, as in simulate <kind>
        assert run_cli(["tabulate", "--statistic", "airy1-sum", "--nsamples", "100"], tmp_path) == 2
        err = error_of(capsys)
        assert err["error"] == "InputFormatError"
        assert "unrecognized arguments: --statistic" in err["message"]
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize(
        "command, extra, error", UNREAD_CASES, ids=[f"{c.replace(' ', '-')}{e[0]}" for c, e, _ in UNREAD_CASES]
    )
    def test_unread_option_is_refused(self, tmp_path, capsys, command, extra, error):
        # an option the command does not read exits 2 before any work; without it the call succeeds
        u, v = small_panels(tmp_path)
        spec, ts, out, cache = tmp_path / "spec.json", tmp_path / "ts.csv", tmp_path / "out", tmp_path / "store"
        save_spectrum_json(spec, Spectrum(np.array([0.5, 0.2])))
        assert main(["simulate", "var1", "--k", "2", "--t", "50", "--output", str(ts)]) == 0
        out.mkdir()
        fill = {"u": u, "v": v, "spec": spec, "ts": ts, "out": out, "cache": cache}
        base, extra = ([a.format(**fill) for a in argv] for argv in (UNREAD_BASE[command], extra))
        assert main([*base, *extra]) == 2
        err = error_of(capsys)
        assert err["error"] == error
        assert extra[0] in err["message"]
        assert not any(out.iterdir()) and not cache.exists()
        assert main(base) == 0
        assert any(out.iterdir()) or any(cache.iterdir())

    @pytest.mark.parametrize("argv", [["--help"], ["cca", "--help"]], ids=["top", "cca"])
    def test_help_still_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: hdcca")

    @pytest.mark.parametrize("field", ["nan", "inf"])
    @pytest.mark.parametrize(
        "command, text, column",
        [(["cca", "--v", "{good}", "--u"], "a,b,c\n1.0,2.0,3.0\n4.0,{},6.0\n", 2),
         (["coint", "--regime", "small", "--input"], "t,x,y\n0,1.0,2.0\n1,3.0,{}\n", 3)],
        ids=["panel", "timeseries"],
    )
    def test_non_finite_csv_field(self, tmp_path, capsys, command, text, column, field):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("a,b,c\n1.0,2.0,4.0\n")
        bad.write_text(text.format(field))
        assert run_cli([*(a.format(good=good) for a in command), str(bad)], tmp_path) == 2
        err = error_of(capsys)
        assert err["error"] == "InputFormatError"
        assert f"{bad}, line 3: column {column} is not finite" in err["message"]

    @pytest.mark.parametrize(
        "command, text, error, message",
        [
            (["coint", "--regime", "small", "--input"], "t,x\n0,1.0\n1,2.0\n", "InputFormatError",
             "{bad}, line 3: need time points 0..T with T >= 2"),
            (["cca", "--v", "{good}", "--u"], "a,b,c\n1.0,2.0,3.0\n0,0,0\n", "RankDeficient",
             "U Gram matrix is not positive definite"),
            (["cca", "--v", "{good}", "--u"], None, "InputFormatError", "{bad}: cannot read file"),
            (["cca", "--v", "{good}", "--u"], "a,b,c\n\n", "InputFormatError",
             "{bad}: need a header row plus at least one data row"),
            (["histogram", "--tau-k", "5", "--tau-m", "3", "--spectrum"], "not json", "InputFormatError",
             "{bad}: cannot parse spectrum JSON"),
            (["histogram", "--tau-k", "5", "--tau-m", "3", "--spectrum"], '{"schema": "hdcca.cca/1"}',
             "InputFormatError", "{bad}: expected schema"),
            (["histogram", "--tau-k", "5", "--tau-m", "3", "--spectrum"], "[0.5]", "InputFormatError",
             "{bad}: expected schema"),
        ],
        ids=["short-series", "zero-row", "missing-file", "header-only", "spectrum-text", "spectrum-schema",
             "spectrum-list"],
    )
    def test_bad_file(self, tmp_path, capsys, command, text, error, message):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("a,b,c\n1.0,2.0,4.0\n")
        if text is not None:
            bad.write_text(text)
        assert run_cli([*(a.format(good=good) for a in command), str(bad)], tmp_path) == 2
        err = error_of(capsys)
        assert err["error"] == error
        assert message.format(bad=bad) in err["message"]

    def test_non_finite_spectrum(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"schema": SPECTRUM_SCHEMA, "values": [float("nan"), 0.3]}))
        argv = ["histogram", "--spectrum", str(spec), "--tau-k", "5", "--tau-m", "3", "--bins", "5"]
        assert run_cli(argv, tmp_path) == 2
        err = error_of(capsys)
        assert err["error"] == "InputFormatError"
        assert str(spec) in err["message"] and "finite" in err["message"]

    def stored_table_test(self, tmp_path, data: bytes) -> tuple[list, Path]:
        """A 2 x 3 small-regime test call, and its stored table's file, which holds `data`."""
        u, v = small_panels(tmp_path)
        table = tmp_path / "cache" / TestTableStore.PINNED_NAME
        table.parent.mkdir(exist_ok=True)
        table.write_bytes(data)
        return ["independence", "--u", str(u), "--v", str(v), "--regime", "small", "--nsamples", "200"], table

    @pytest.mark.parametrize("text", ["not json", '{"version": 2}', "[1]"], ids=["text", "no-fields", "list"])
    def test_malformed_table_file(self, tmp_path, capsys, text):
        argv, table = self.stored_table_test(tmp_path, text.encode())
        assert run_cli(argv, tmp_path) == 2
        err = error_of(capsys)
        assert err["error"] == "TableMismatch"
        assert str(table) in err["message"]

    def test_version_one_table_file(self, tmp_path, capsys):
        argv, table = self.stored_table_test(tmp_path, json.dumps({
            "version": 1, "statistic_id": "LAGUERRE_MAX", "params": {"K": 2, "M": 3},
            "seed": {"value": 0, "stream": 0}, "nsamples": 200, "entries": [{"alpha": 0.95, "q": 7.8}],
        }).encode())
        assert run_cli(argv, tmp_path) == 2
        err = error_of(capsys)
        assert err["error"] == "TableMismatch"
        assert str(table) in err["message"] and "version 1" in err["message"]

    def test_corrupt_file_in_the_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / TestTableStore.PINNED_NAME).write_text('{"version": 2, "statistic_id": "LAGUER')
        u, v = small_panels(tmp_path)
        code = run_cli(
            ["independence", "--u", str(u), "--v", str(v), "--regime", "small", "--nsamples", "200", "--seed", "0"],
            tmp_path,
        )
        assert code == 2
        assert error_of(capsys)["error"] == "TableMismatch"

    @pytest.mark.parametrize(
        "command, error, message",
        [
            (["cca", "--v", "{good}", "--u"], "InputFormatError", "{bad}: cannot read file"),
            (["histogram", "--tau-k", "5", "--tau-m", "3", "--spectrum"], "InputFormatError",
             "{bad}: cannot parse spectrum JSON"),
            (None, "TableMismatch", "{bad}: 'utf-8' codec can't decode byte 0xff"),
        ],
        ids=["csv", "spectrum", "table"],
    )
    def test_file_that_is_not_utf8(self, tmp_path, capsys, command, error, message):
        # None: the bytes are the stored table of a test call
        good, bad, data = tmp_path / "good.csv", tmp_path / "bad.csv", b"a,b\n1.0,\xff\n"
        good.write_text("a,b,c\n1.0,2.0,4.0\n")
        if command is None:
            argv, bad = self.stored_table_test(tmp_path, data)
        else:
            bad.write_bytes(data)
            argv = [*(a.format(good=good) for a in command), str(bad)]
        assert run_cli(argv, tmp_path) == 2
        err = error_of(capsys)
        assert err["error"] == error
        assert message.format(bad=bad) in err["message"]

    @pytest.mark.parametrize(
        "abbreviation", [["--out", "{dir}/r.json"], ["--to", "1e-8"], ["--no-time"]], ids=["out", "to", "no-time"]
    )
    def test_abbreviated_option_is_refused(self, tmp_path, capsys, abbreviation):
        # an option is spelled in full, so a prefix of one never parses and a new option cannot change a call;
        # --no-time is a prefix of the removed --no-timestamp
        u, v = small_panels(tmp_path)
        abbreviation = [a.format(dir=tmp_path) for a in abbreviation]
        assert main(["cca", "--u", str(u), "--v", str(v), *abbreviation]) == 2
        err = error_of(capsys)
        assert err["error"] == "InputFormatError"
        assert f"unrecognized arguments: {' '.join(abbreviation)}" in err["message"]
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("nsamples", [10**17, 10**19], ids=["1e17", "1e19"])
    def test_nsamples_that_do_not_fit_in_memory(self, tmp_path, capsys, nsamples):
        # the draws are allocated before any is made, so the refusal is immediate: 1e17 rows need
        # 1.4 EiB, and 1e19 rows exceed numpy's largest dimension
        argv = ["tabulate", "laguerre-max", "--k", "2", "--m", "3", "--nsamples", str(nsamples)]
        assert run_cli(argv, tmp_path) == 2
        err = error_of(capsys)
        assert err["error"] == "InvalidParams"
        assert "do not fit in memory" in err["message"]
        assert list(tmp_path.iterdir()) == []


def hdcca_process(argv, cwd):
    """``python -m hdcca`` in a fresh interpreter, where a regime warning prints rather than raises."""
    env = {**os.environ, "PYTHONPATH": str(Path(hyptest.__file__).parent.parent)}
    return subprocess.run([sys.executable, "-m", "hdcca", *argv], capture_output=True, text=True, cwd=cwd, env=env)


class TestProcessStart:
    """``python -m hdcca`` and the ``hdcca`` script start OpenBLAS with its shortest thread timeout, so
    its worker does not spin a second core after each call; nothing else sets it, and no bit moves."""

    def test_a_process_writes_the_bytes_of_an_in_process_call(self, tmp_path):
        # 100-dimensional inputs, large enough for OpenBLAS to split its work over threads
        assert main(["simulate", "panels", "--k", "100", "--m", "150", "--s", "500", "--seed", "3",
                     "--output-u", str(tmp_path / "u.csv"), "--output-v", str(tmp_path / "v.csv")]) == 0
        assert main(["simulate", "var1", "--k", "100", "--t", "1000", "--seed", "3",
                     "--output", str(tmp_path / "ts.csv")]) == 0
        panels, store = ["--u", "u.csv", "--v", "v.csv"], ["--nsamples", "200"]
        calls = {
            "cca": ["cca", *panels],
            "independence": ["independence", *panels, "--regime", "large", *store],
            "coint": ["coint", "--input", "ts.csv", "--regime", "large", *store],
        }

        def on(side, name):  # the call's argv, writing its report and tables apart for each side
            cache = ["--table-cache-dir", side] if name != "cca" else []
            return [*calls[name], *cache, "--output", f"{name}-{side}.json"]

        cwd = Path.cwd()
        os.chdir(tmp_path)
        try:
            for name in calls:
                assert main(on("in", name)) in (0, 3)
        finally:
            os.chdir(cwd)
        for name in calls:
            proc = hdcca_process(on("process", name), tmp_path)
            assert proc.returncode in (0, 3), proc.stderr
            assert (tmp_path / f"{name}-process.json").read_bytes() == (tmp_path / f"{name}-in.json").read_bytes()
        stored = {store: {p.name: p.read_bytes() for p in (tmp_path / store).iterdir()} for store in ("in", "process")}
        assert stored["in"] == stored["process"] != {}

    def test_the_package_root_loads_no_numpy(self):
        code = "import sys, hdcca; print('numpy' in sys.modules, hdcca.Seed.__module__, 'numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "hdcca.ensembles", "True"]

    @pytest.mark.parametrize(
        "module, preset, expected",
        [("hdcca.__main__", None, "4"), ("hdcca.__main__", "12", "12"), ("hdcca.cli", None, "None"),
         ("hdcca", None, "None")],
        ids=["main-unset", "main-user-value", "cli", "package"],
    )
    def test_only_the_cli_process_sets_the_thread_timeout(self, module, preset, expected):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
        if preset is not None:
            env["OPENBLAS_THREAD_TIMEOUT"] = preset
        code = f"import os, {module}; print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == expected


class TestPanelScale:
    """The kernel reads no panel scale: a far-scaled panel keeps its decision, and a panel too small for
    its canonical vectors is one error line that names its scale."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("scaled")
        assert main(["simulate", "panels", "--k", "2", "--m", "3", "--s", "200", "--rho2", "0.9", "--seed", "4",
                     "--output-u", str(d / "u.csv"), "--output-v", str(d / "v.csv")]) == 0
        u = load_panel_csv(d / "u.csv").values
        for name, c in (("u_big.csv", 1e160), ("u_subnormal.csv", 1e-310)):
            save_panel_csv(d / name, DataPanel(u * c))
        return d

    @pytest.mark.parametrize("u", ["u.csv", "u_big.csv"])
    def test_far_scaled_panel_keeps_its_rejection(self, workdir, u):
        # U times 1e160 overflows unscaled Grams, which read statistic 0.0 and fail to reject
        proc = hdcca_process(["independence", "--regime", "small", "--nsamples", "2000", "--u", u, "--v", "v.csv",
                              "--table-cache-dir", "cache"], workdir)
        assert (proc.returncode, proc.stderr) == (3, "")
        assert json.loads(proc.stdout)["statistic"] > 100

    def test_subnormal_panel_names_its_scale(self, workdir):
        proc = hdcca_process(["cca", "--u", "u_subnormal.csv", "--v", "v.csv"], workdir)
        assert proc.returncode == 2
        [line] = proc.stderr.splitlines()
        err = json.loads(line)
        assert err["error"] == "RankDeficient"
        assert "canonical vectors overflow at panel scales 2^-10" in err["message"]


class TestRegimeWarning:
    """A test's regime warning shows once its report is written: a warned decision prints the warning as
    one line, and a refused table or a failed write prints only the one error line."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        # 10 x 12 panels warn in the large regime (min(K, M) < 50), and so does a K = 40, T = 90
        # series (T/K < 2.5); the same series warns in the small regime too (K > 10)
        d = tmp_path_factory.mktemp("warned")
        for argv in (["simulate", "panels", "--k", "10", "--m", "12", "--s", "100",
                      "--output-u", "{d}/u.csv", "--output-v", "{d}/v.csv"],
                     ["simulate", "var1", "--k", "40", "--t", "90", "--output", "{d}/ts.csv"],
                     ["tabulate", "airy1-sum", "--nsamples", "50", "--table-cache-dir", "{d}/planted"],
                     ["tabulate", "laguerre-max", "--k", "2", "--m", "3", "--nsamples", "50",
                      "--table-cache-dir", "{d}/planted"]):
            assert main([a.format(d=d) for a in argv]) == 0
        # in the planted store, the r = 1 Airy_1 table's file holds the Laguerre table
        [airy], [laguerre] = (list(d.glob(f"planted/{kind}-*.json")) for kind in ("airy1_sum", "laguerre_max"))
        airy.write_bytes(laguerre.read_bytes())
        return d

    INDEPENDENCE = ["independence", "--u", "u.csv", "--v", "v.csv", "--regime", "large"]
    COINT = ["coint", "--input", "ts.csv"]

    @pytest.mark.parametrize(
        "argv, error",
        [
            ([*INDEPENDENCE, "--nsamples", "50", "--table-cache-dir", "planted"], "TableMismatch"),
            ([*INDEPENDENCE, "--nsamples", "-1", "--table-cache-dir", "cache"], "InvalidParams"),
            ([*COINT, "--regime", "large", "--nsamples", "50", "--table-cache-dir", "planted"], "TableMismatch"),
            ([*INDEPENDENCE, "--nsamples", "50", "--table-cache-dir", "cache", "--output", "nodir/r.json"],
             "FileNotFoundError"),
        ],
        ids=["independence-table-mismatch", "independence-negative-nsamples", "coint-table-mismatch",
             "independence-failed-write"],
    )
    def test_refused_table_prints_one_line(self, workdir, argv, error):
        proc = hdcca_process(argv, workdir)
        assert proc.returncode == 2
        [line] = proc.stderr.splitlines()
        assert json.loads(line)["error"] == error

    @pytest.mark.parametrize(
        "argv, message",
        [
            (INDEPENDENCE, "min(K, M) = 10 < 50: the edge approximation may be inaccurate; "
             "consider the small-dimension test"),
            ([*COINT, "--regime", "large"], "T/K = 2.25 is close to the lower validity boundary 2; "
             "results may be distorted"),
            ([*COINT, "--regime", "small"], "K = 40 > 10: the fixed-K limit needs K much smaller than T; "
             "consider the large-K test"),
        ],
        ids=["independence-large", "coint-large", "coint-small"],
    )
    def test_warned_decision_prints_the_warning(self, workdir, argv, message):
        # one line naming no file, so two checkouts of one commit print the same bytes
        proc = hdcca_process([*argv, "--nsamples", "50", "--table-cache-dir", "cache"], workdir)
        assert proc.returncode in (0, 3)
        assert json.loads(proc.stdout)["schema"] == "hdcca.report/1"
        assert proc.stderr == f"RuntimeWarning: {message}\n"

    def test_warning_under_an_error_filter_raises_before_the_report(self, workdir):
        out = workdir / "raised.json"
        argv = ["independence", "--u", str(workdir / "u.csv"), "--v", str(workdir / "v.csv"), "--regime", "large",
                "--nsamples", "50", "--table-cache-dir", str(workdir / "cache"), "--output", str(out)]
        with warnings.catch_warnings(), pytest.raises(RuntimeWarning, match="min\\(K, M\\) = 10 < 50"):
            warnings.simplefilter("error")
            main(argv)
        assert not out.exists()


# Each leaf command's options but -h: adding an option is an edit here.
OPTION_COUNTS = {
    "cca": 4, "histogram": 6, "independence": 8, "coint": 8, "simulate panels": 7, "simulate var1": 6,
    "tabulate laguerre-max": 5, "tabulate airy1-sum": 4, "tabulate brownian-coint": 5,
}


def test_option_counts_are_pinned():
    counts, parsers = {}, [("", build_parser())]
    while parsers:
        name, parser = parsers.pop()
        kinds = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if kinds:
            parsers += [(f"{name} {kind}".strip(), p) for kind, p in kinds[0].items()]
        else:
            counts[name] = sum(bool(a.option_strings) and not isinstance(a, argparse._HelpAction) for a in parser._actions)
    assert counts == OPTION_COUNTS
    assert sum(counts.values()) == 53


def test_readme_command_lines_parse():
    # every hdcca line in README's fenced blocks is a call the parser accepts
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```\w*\n(.*?)^```", readme, re.S | re.M)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("hdcca ")]
    calls = [shlex.split(line, comments=True) for line in lines]
    assert len(calls) >= 9
    for argv in calls:
        build_parser().parse_args(argv[1:])
