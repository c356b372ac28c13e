"""The CSV codec of hdcca.dataio: the savers and the histogram write csv.writer's
bytes, CRLF line ends included, and the reader gives one array, one set of
line numbers and one error message per input, whichever tokenizer reads it:
those of the list-based reference reader, though it holds one row's fields at a time."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from hdcca import dataio
from hdcca.cca_core import DataPanel
from hdcca.cli import main
from hdcca.cointegration import TimeSeriesPanel
from hdcca.dataio import (
    _read_matrix,
    histogram_csv,
    load_panel_csv,
    load_timeseries_csv,
    save_panel_csv,
    save_timeseries_csv,
)
from hdcca.errors import InputFormatError
from hdcca.wachter import WachterParams
from oracles import csv_writer_save, read_matrix_reference

EDGE_VALUES = [-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308]
FINITE = st.floats(allow_nan=False, allow_infinity=False)
GOOD_FIELDS = ["1", "-2.5", "0.0", "-0.0", "1E-3", "5e-324", "1e308", "1_0", "+.5", "7.", " 3 "]
BAD_FIELDS = ["x", "nan", "inf", "-inf", "1e400", "", " "]
BLANK_LINES = ["", "  ", " , ", ",", "\t,\t"]
LINE_ENDS = ["\n", "\r\n", "\r", "\v", "\f"]


@st.composite
def csv_texts(draw) -> str:
    """A CSV text with or without a header, quoted or not, with blank lines and mixed line ends, whose rows
    may have bad fields and may be ragged."""
    field = st.sampled_from(GOOD_FIELDS + BAD_FIELDS if draw(st.booleans()) else GOOD_FIELDS)
    quoted = field.flatmap(lambda f: st.sampled_from([f, f'"{f}"'])) if draw(st.booleans()) else field
    width = st.integers(1, 4) if draw(st.booleans()) else st.just(draw(st.integers(1, 3)))
    row = width.flatmap(lambda w: st.lists(quoted, min_size=w, max_size=w)).map(",".join)
    header = draw(st.sampled_from([[], ["a,b,c"], ['"a",b']]))
    lines = header + draw(st.lists(st.one_of(row, row, st.sampled_from(BLANK_LINES)), min_size=2, max_size=8))
    ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(lines), max_size=len(lines)))
    return "".join(map(str.__add__, lines, ends))


def read_outcome(read, path) -> tuple:
    """(line numbers, shape, bytes, writeable) of what `read` returns, or (class, message) of what it raises."""
    try:
        linenos, data = read(path)
    except Exception as e:
        return type(e), str(e)
    return linenos, data.shape, data.tobytes(), data.flags.writeable


def oracle_panel_bytes(path, values: np.ndarray) -> bytes:
    csv_writer_save(path, [f"obs_{j}" for j in range(values.shape[1])], (row.tolist() for row in values))
    return path.read_bytes()


def oracle_series_bytes(path, X: np.ndarray) -> bytes:
    header = ["t", *(f"x_{i}" for i in range(X.shape[0]))]
    csv_writer_save(path, header, ([t, *X[:, t].tolist()] for t in range(X.shape[1])))
    return path.read_bytes()


def quote_fields(text: str) -> str:
    """The same CSV with every field of every line in double quotes."""
    return "".join(
        ",".join(f'"{f}"' for f in line.split(",")) + "\n" if line.strip() else line + "\n"
        for line in text.splitlines()
    )


class TestWriterBytes:
    def test_panel_matches_csv_writer(self, tmp_path, rng):
        values = rng.standard_normal((4, 9)) * np.logspace(-300, 300, 9)
        save_panel_csv(tmp_path / "p.csv", DataPanel(values))
        assert (tmp_path / "p.csv").read_bytes() == oracle_panel_bytes(tmp_path / "oracle.csv", values)

    def test_series_matches_csv_writer(self, tmp_path, rng):
        X = np.cumsum(rng.standard_normal((3, 12)), axis=1)
        save_timeseries_csv(tmp_path / "ts.csv", TimeSeriesPanel(X))
        assert (tmp_path / "ts.csv").read_bytes() == oracle_series_bytes(tmp_path / "oracle.csv", X)

    @pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
    def test_edge_values_match_csv_writer(self, tmp_path, value):
        values = np.array([[value, -value, 1.0], [0.5, value, value]])
        save_panel_csv(tmp_path / "p.csv", DataPanel(values))
        save_timeseries_csv(tmp_path / "ts.csv", TimeSeriesPanel(values))
        assert (tmp_path / "p.csv").read_bytes() == oracle_panel_bytes(tmp_path / "oracle.csv", values)
        assert (tmp_path / "ts.csv").read_bytes() == oracle_series_bytes(tmp_path / "oracle.csv", values)
        assert load_panel_csv(tmp_path / "p.csv").values.tobytes() == values.tobytes()

    def test_simulate_at_benchmark_sizes_matches_csv_writer(self, tmp_path):
        u, v, ts = (tmp_path / name for name in ("u.csv", "v.csv", "ts.csv"))
        argv = ["simulate", "panels", "--k", "100", "--m", "150", "--s", "500", "--seed", "3"]
        assert main([*argv, "--output-u", str(u), "--output-v", str(v)]) == 0
        assert main(["simulate", "var1", "--k", "100", "--t", "1000", "--seed", "3", "--output", str(ts)]) == 0
        U, V, X = load_panel_csv(u).values, load_panel_csv(v).values, load_timeseries_csv(ts).X
        assert (U.shape, V.shape, X.shape) == ((100, 500), (150, 500), (100, 1001))
        assert u.read_bytes() == oracle_panel_bytes(tmp_path / "oracle.csv", U)
        assert v.read_bytes() == oracle_panel_bytes(tmp_path / "oracle.csv", V)
        assert ts.read_bytes() == oracle_series_bytes(tmp_path / "oracle.csv", X)

    def test_histogram_matches_csv_writer(self, tmp_path, rng):
        text = histogram_csv(rng.beta(2.0, 5.0, size=300), WachterParams(5.0, 10.0 / 3.0), 17)
        header, *rows = (line.split(",") for line in text.splitlines())
        csv_writer_save(tmp_path / "oracle.csv", header, ([float(f) for f in row] for row in rows))
        assert text.encode() == (tmp_path / "oracle.csv").read_bytes()

    def test_every_csv_kind_ends_each_line_with_crlf(self, tmp_path, rng):
        save_panel_csv(tmp_path / "p.csv", DataPanel(rng.standard_normal((2, 3))))
        save_timeseries_csv(tmp_path / "ts.csv", TimeSeriesPanel(rng.standard_normal((2, 4))))
        (tmp_path / "h.csv").write_bytes(histogram_csv(rng.uniform(size=20), WachterParams(5.0, 3.0), 6).encode())
        for name, rows in (("p.csv", 2), ("ts.csv", 4), ("h.csv", 6)):
            *lines, last = (tmp_path / name).read_bytes().split(b"\r\n")
            assert last == b"" and len(lines) == 1 + rows
            assert not any(b"\r" in line or b"\n" in line for line in lines)

    @settings(max_examples=60, deadline=None)
    @given(values=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=5), elements=FINITE))
    def test_save_load_round_trip(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("round-trip") / "p.csv"
        save_panel_csv(path, DataPanel(values))
        assert load_panel_csv(path).values.tobytes() == values.tobytes()


class TestAdoption:
    def test_loaded_panel_adopts_the_matrix_read(self, tmp_path, monkeypatch):
        # the reader hands over a fresh read-only array, so no load copies its matrix once more
        values = np.array([EDGE_VALUES, [-v for v in EDGE_VALUES]])
        path = tmp_path / "p.csv"
        save_panel_csv(path, DataPanel(values))
        read = []
        monkeypatch.setattr(dataio, "_read_matrix", lambda p: read.append(_read_matrix(p)) or read[-1])
        panel = load_panel_csv(path)
        assert panel.values is read[0][1]
        assert panel.values.tobytes() == values.tobytes()


class TestStreaming:
    """The streaming reader against the list-based one it replaced: same result or same error, in less memory."""

    def test_reader_holds_no_field_list_of_the_whole_file(self, tmp_path, rng):
        # the benchmark's larger panel: a reader holding every field as a string peaks near 130 bytes a field,
        # the text, its lines and one row's fields near 60
        path = tmp_path / "v.csv"
        save_panel_csv(path, DataPanel(rng.standard_normal((150, 500))))
        tracemalloc.start()
        try:
            load_panel_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80 * 150 * 500

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(text=csv_texts())
    # a fault before a quoted field past csv's field size limit: the tokenizer's error comes first in both
    @example(text='h,h\n1,x\n"' + "1" * 200_000 + '",2\n')
    def test_matches_the_reference_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "differential.csv"
        path.write_text(text)
        assert read_outcome(_read_matrix, path) == read_outcome(read_matrix_reference, path)


class TestTokenizers:
    """A file holding a double quote is read by csv.reader, any other by str.split."""

    def test_quoted_csv_loads_as_its_unquoted_twin(self, tmp_path):
        plain = "a,b,c\n1.0,2.0,3.0\n\n4.5,-0.0,1e-05\n"
        (tmp_path / "plain.csv").write_text(plain)
        (tmp_path / "quoted.csv").write_text(quote_fields(plain))
        assert '"4.5","-0.0","1e-05"' in (tmp_path / "quoted.csv").read_text()
        plain_lines, plain_data = _read_matrix(tmp_path / "plain.csv")
        quoted_lines, quoted_data = _read_matrix(tmp_path / "quoted.csv")
        assert plain_lines == quoted_lines == [2, 4]
        assert plain_data.tobytes() == quoted_data.tobytes()
        np.testing.assert_array_equal(plain_data, [[1.0, 2.0, 3.0], [4.5, -0.0, 1e-05]])

    @pytest.mark.parametrize("header", ["a,b", '"a",b'], ids=["split", "csv-reader"])
    def test_blank_rows_are_skipped(self, tmp_path, header):
        path = tmp_path / "blank.csv"
        path.write_text(f"{header}\n1,2\n   \n , \n,\n\t,\t\n3,4\n\n")
        lines, data = _read_matrix(path)
        assert lines == [2, 7]
        np.testing.assert_array_equal(data, [[1.0, 2.0], [3.0, 4.0]])


# (text, message after "<path>, "): the first fault in file order, as the per-field reader reported it
MALFORMED = [
    ("h,h\n1,2\n3,x\n", "line 3: column 2 is not numeric: 'x'"),
    ("h,h\n1,2\nnan,4\n", "line 3: column 1 is not finite"),
    ("h,h\n1,2\n3,1e400\n", "line 3: column 2 is not finite"),
    ("h,h\n1,2\n3\n", "line 3: expected 2 fields, got 1"),
    ("h,h\n1,2\n3,4,5\n", "line 3: expected 2 fields, got 3"),
    ("h,h,h\n1,2,3\n4,inf,y\n", "line 3: column 2 is not finite"),
    ("h,h,h\n1,2,3\n4,y,inf\n", "line 3: column 2 is not numeric: 'y'"),
    ("h,h\n1,2\nx\n", "line 3: column 1 is not numeric: 'x'"),
    ("h,h\n1,2\n3\n4,z\n", "line 3: expected 2 fields, got 1"),
    ("h,h\n1,2\n3,z\n4\n", "line 3: column 2 is not numeric: 'z'"),
    ("h,h\n1,2\n3,nan\n4,z\n", "line 3: column 2 is not finite"),
    ("h,h\n\n1,2\n\n3,x\n", "line 5: column 2 is not numeric: 'x'"),
    ("h,h\nq,2\n3,4\n", "line 2: column 1 is not numeric: 'q'"),
]
MALFORMED_IDS = ["non-numeric", "non-finite", "overflow", "short-row", "long-row", "two-faults-inf-first",
                 "two-faults-text-first", "short-row-non-numeric", "short-row-before-text", "text-before-short-row",
                 "nan-before-text", "blank-lines-counted", "first-row"]


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
@pytest.mark.parametrize("text, message", MALFORMED, ids=MALFORMED_IDS)
def test_malformed_input_message(tmp_path, text, message, quoted):
    path = tmp_path / "bad.csv"
    path.write_text(quote_fields(text) if quoted else text)
    with pytest.raises(InputFormatError) as excinfo:
        load_panel_csv(path)
    assert str(excinfo.value) == f"{path}, {message}"
