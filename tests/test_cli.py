import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hdcca import hyptest
from hdcca.cli import main
from hdcca.dataio import (
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

DATA = Path(__file__).parent / "data"


def run_cli(args, tmp_path):
    return main([*args, "--table-cache-dir", str(tmp_path / "cache")])


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
             "--no-timestamp", "--output", str(out)],
            tmp_path,
        )
        assert code == 0
        assert out.read_text() == (DATA / "golden_cca_3x20.json").read_text()

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
                 "--no-timestamp", "--output", str(out)],
                tmp_path,
            )
        assert out1.read_bytes() == out2.read_bytes()


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

    def test_missing_overlay_parameters(self, tmp_path):
        path, _ = self._spectrum_file(tmp_path)
        assert run_cli(["histogram", "--spectrum", str(path)], tmp_path) == 2


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
             "--nsamples", "1500", "--n-grid", "300", "--no-timestamp", "--output", str(out)],
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
             "--nsamples", "1500", "--n-grid", "300", "--no-timestamp"],
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
                 "--nsamples", "1000", "--n-grid", "200", "--no-timestamp", "--output", str(out)],
                tmp_path,
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_tabulate_round_trip(self, tmp_path):
        out = tmp_path / "table.json"
        code = run_cli(
            ["tabulate", "--statistic", "laguerre-max", "--k", "2", "--m", "3",
             "--alphas", "0.9,0.95", "--nsamples", "2000", "--seed", "7",
             "--no-timestamp", "--output", str(out)],
            tmp_path,
        )
        assert code == 0
        table = QuantileTable.load(out)
        assert table.params == {"K": 2, "M": 3}
        u, v = tmp_path / "u.csv", tmp_path / "v.csv"
        run_cli(
            ["simulate", "panels", "--k", "2", "--m", "3", "--s", "200", "--seed", "8",
             "--output-u", str(u), "--output-v", str(v)],
            tmp_path,
        )
        code = run_cli(
            ["independence", "--u", str(u), "--v", str(v), "--regime", "small",
             "--table", str(out), "--no-timestamp"],
            tmp_path,
        )
        assert code in (0, 3)

    def test_planted_signal_pipeline_rejects(self, tmp_path):
        u, v = tmp_path / "u.csv", tmp_path / "v.csv"
        run_cli(
            ["simulate", "panels", "--k", "2", "--m", "3", "--s", "1200", "--rho2", "0.25",
             "--seed", "9", "--output-u", str(u), "--output-v", str(v)],
            tmp_path,
        )
        code = run_cli(
            ["independence", "--u", str(u), "--v", str(v), "--regime", "small",
             "--nsamples", "4000", "--no-timestamp"],
            tmp_path,
        )
        assert code == 3

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hdcca", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "cca" in proc.stdout

    def test_missing_tabulate_dimensions_exit_code(self, tmp_path, capsys):
        code = run_cli(
            ["tabulate", "--statistic", "laguerre-max", "--alphas", "0.9", "--nsamples", "100"],
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
    TABULATE_23 = ["tabulate", "--statistic", "laguerre-max", "--k", "2", "--m", "3", "--nsamples", "200"]
    PINNED_NAME = "laguerre_max-30b09888aa386e5c2cb73763.json"

    def test_tables_of_different_dimensions_get_different_files(self, tmp_path):
        assert run_cli(self.TABULATE_23, tmp_path) == 0
        assert run_cli(
            ["tabulate", "--statistic", "laguerre-max", "--k", "3", "--m", "5", "--nsamples", "200"], tmp_path
        ) == 0
        assert len(list((tmp_path / "cache").iterdir())) == 2

    def test_file_name_is_the_identity_digest(self, tmp_path, capsys):
        # K=2, M=3, alphas 0.9/0.95/0.99, nsamples 200, seed 0/0: the name
        # earlier releases gave this table, so their caches still hit.
        argv = [*self.TABULATE_23, "--alphas", "0.9,0.95,0.99", "--seed", "0", "--stream", "0"]
        assert run_cli(argv, tmp_path) == 0
        path = Path(capsys.readouterr().out.strip())
        assert path.name == self.PINNED_NAME
        assert path.parent == tmp_path / "cache"

    def test_tabulate_prewarms_the_independence_table(self, tmp_path, capsys, monkeypatch):
        assert run_cli([*self.TABULATE_23, "--alphas", "0.9,0.95,0.99"], tmp_path) == 0
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

    def test_edited_identity_raises_table_mismatch(self, tmp_path, capsys):
        assert run_cli(self.TABULATE_23, tmp_path) == 0
        path = Path(capsys.readouterr().out.strip())
        doc = json.loads(path.read_text())
        doc["seed"]["value"] = 1
        path.write_text(json.dumps(doc))
        u, v = small_panels(tmp_path)
        code = run_cli(
            ["independence", "--u", str(u), "--v", str(v), "--regime", "small", "--nsamples", "200"], tmp_path
        )
        assert code == 2
        err = error_of(capsys)
        assert err["error"] == "TableMismatch"
        assert str(path) in err["message"]


class TestBadInput:
    """Each bad input exits 2 with one line of hdcca.error/1 JSON on stderr."""

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["simulate", "var1", "--k", "2", "--t", "10", "--seed", "-1"], "ParameterRange"),
            (["simulate", "var1", "--k", "2", "--t", "10", "--stream", "-1"], "ParameterRange"),
            (["simulate", "panels", "--k", "2", "--m", "3", "--s", "20", "--rho2", "x"], "InputFormatError"),
            (["simulate", "panels", "--k", "2", "--m", "3", "--s", "20", "--rho2", "1.5"], "ParameterRange"),
            (["tabulate", "--statistic", "laguerre-max", "--k", "2", "--m", "3", "--nsamples", "0"],
             "InvalidParams"),
            (["tabulate", "--statistic", "airy1-sum", "--nsamples", "0"], "InvalidParams"),
            (["tabulate", "--statistic", "brownian-coint", "--k", "2", "--nsamples", "0"], "InvalidParams"),
        ],
        ids=["seed", "stream", "rho2-text", "rho2-range",
             "nsamples-laguerre", "nsamples-airy", "nsamples-brownian"],
    )
    def test_argument(self, tmp_path, capsys, argv, error):
        if argv[0] == "simulate":
            argv = [*argv, *(f"--output{s}={tmp_path / ('out' + s)}" for s in ("", "-u", "-v"))]
        assert run_cli(argv, tmp_path) == 2
        assert error_of(capsys)["error"] == error

    @pytest.mark.parametrize("text", ["not json", '{"version": 1}', "[1]"], ids=["text", "no-fields", "list"])
    def test_malformed_table_file(self, tmp_path, capsys, text):
        u, v = small_panels(tmp_path)
        table = tmp_path / "table.json"
        table.write_text(text)
        code = run_cli(
            ["independence", "--u", str(u), "--v", str(v), "--regime", "small", "--table", str(table)], tmp_path
        )
        assert code == 2
        err = error_of(capsys)
        assert err["error"] == "TableMismatch"
        assert str(table) in err["message"]

    def test_corrupt_file_in_the_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / TestTableStore.PINNED_NAME).write_text('{"version": 1, "statistic_id": "LAGUER')
        u, v = small_panels(tmp_path)
        code = run_cli(
            ["independence", "--u", str(u), "--v", str(v), "--regime", "small", "--nsamples", "200", "--seed", "0"],
            tmp_path,
        )
        assert code == 2
        assert error_of(capsys)["error"] == "TableMismatch"
