"""CSV and JSON file formats for the command-line tools.

Data panel CSV: one header row (labels are ignored), then one row per
variable, every field a finite number; columns are observations.

Time-series CSV: one header row, then one row per time point 0..T, T >= 2; the
first column is the integer time index, the remaining K columns are the
variables, every field a finite number.

Spectrum JSON: ``{"schema": "hdcca.spectrum/1", "values": [...],
"meta": {...}}`` with values sorted descending in [0, 1].

Histogram CSV: header ``bin_center,empirical_density,wachter_density``,
then one row per equal-width bin over [0, 1].

Every CSV written here has Python float repr fields, so reruns are
byte-identical, and CRLF line ends (:func:`_csv_lines`).

Data rows must be as wide as the first; fields may be double-quoted.  The reader
holds the text and one row's fields at a time, streamed into one float array.  An
error names file, line and column of the first bad field or row in file order.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .cca_core import DataPanel
from .cointegration import TimeSeriesPanel
from .errors import InputFormatError
from .wachter import Spectrum, WachterParams, pdf

SPECTRUM_SCHEMA = "hdcca.spectrum/1"


def _parse_float(field: str, path, lineno: int, col: int) -> float:
    try:
        value = float(field)
    except ValueError:
        raise InputFormatError(
            f"{path}, line {lineno}: column {col} is not numeric: {field!r}"
        ) from None
    if not math.isfinite(value):
        raise InputFormatError(f"{path}, line {lineno}: column {col} is not finite")
    return value


def _read_matrix(path) -> tuple[list[int], np.ndarray]:
    """Line numbers and values of the data rows (the header and blank lines skipped): one streamed bulk
    ``float`` conversion that holds the text and one row's fields at a time; a bad field, ragged row or
    non-finite value tokenizes the text again for the per-field loop, which raises at the first."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise InputFormatError(f"{path}: cannot read file: {e}") from e
    lines = text.splitlines()

    def rows():  # (line number, fields) of each non-blank row, the header first
        # without a quote character csv.reader splits on "," exactly as str.split does
        split = csv.reader(lines) if '"' in text else (line.split(",") for line in lines)
        return ((n, row) for n, row in enumerate(split, start=1) if any(map(str.strip, row)))

    linenos, widths = [], set()

    def data_rows():  # the fields of each data row, its line number and width recorded on the way
        for n, row in islice(rows(), 1, None):
            linenos.append(n)
            widths.add(len(row))
            yield row

    try:
        data = np.fromiter(map(float, chain.from_iterable(data_rows())), float)
    except ValueError:  # a non-numeric field
        data = None
    if data is None or len(widths) > 1 or not np.isfinite(data).all():
        faulty = list(rows())  # whole, so a tokenizer error anywhere comes first, as in one pass
        width = len(faulty[1][1])
        for lineno, row in faulty[1:]:  # the error locator: raises at the first fault in file order
            vals = [_parse_float(f, path, lineno, col) for col, f in enumerate(row, start=1)]
            if len(vals) != width:
                raise InputFormatError(f"{path}, line {lineno}: expected {width} fields, got {len(vals)}")
    if not linenos:
        raise InputFormatError(f"{path}: need a header row plus at least one data row")
    data.shape = len(linenos), widths.pop()  # in place and read-only, so DataPanel adopts it; a view it would copy
    data.setflags(write=False)
    return linenos, data


def _csv_lines(header, rows):
    """csv.writer's lines: no label or number needs quoting, and a float's str is its repr."""
    yield ",".join(header) + "\r\n"
    yield from (",".join(map(repr, row)) + "\r\n" for row in rows)


def _write_csv(path, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.writelines(_csv_lines(header, rows))


def load_panel_csv(path) -> DataPanel:
    return DataPanel(_read_matrix(path)[1])


def save_panel_csv(path, panel: DataPanel) -> None:
    _write_csv(path, [f"obs_{j}" for j in range(panel.cols)], (row.tolist() for row in panel.values))


def load_timeseries_csv(path) -> TimeSeriesPanel:
    linenos, data = _read_matrix(path)
    if data.shape[1] < 2:
        raise InputFormatError(f"{path}, line {linenos[0]}: need a time index plus at least one variable")
    for t, (lineno, value) in enumerate(zip(linenos, data[:, 0].tolist())):
        if value != t:
            raise InputFormatError(
                f"{path}, line {lineno}: time index must run 0..T in order, expected {t}, got {value}"
            )
    if len(data) < 3:
        raise InputFormatError(f"{path}, line {linenos[-1]}: need time points 0..T with T >= 2")
    return TimeSeriesPanel(data[:, 1:].T)


def save_timeseries_csv(path, ts: TimeSeriesPanel) -> None:
    header = ["t", *(f"x_{i}" for i in range(ts.K))]
    _write_csv(path, header, ([t, *row.tolist()] for t, row in enumerate(ts.X.T)))


def load_spectrum_json(path) -> Spectrum:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise InputFormatError(f"{path}: cannot parse spectrum JSON: {e}") from e
    if not isinstance(doc, dict) or doc.get("schema") != SPECTRUM_SCHEMA:
        raise InputFormatError(f"{path}: expected schema {SPECTRUM_SCHEMA!r}")
    try:
        return Spectrum(values=np.asarray(doc["values"], dtype=float), meta=doc.get("meta", {}))
    except Exception as e:
        raise InputFormatError(f"{path}: invalid spectrum: {e}") from e


def spectrum_doc(spec: Spectrum) -> dict:
    """The spectrum JSON document: :func:`save_spectrum_json` writes it, `hdcca cca` reports embed it."""
    return {"schema": SPECTRUM_SCHEMA, "values": spec.values.tolist(), "meta": spec.meta}


def save_spectrum_json(path, spec: Spectrum) -> None:
    Path(path).write_text(json.dumps(spectrum_doc(spec), sort_keys=True) + "\n")


def histogram_csv(values, params: WachterParams, bins: int) -> str:
    """Area-normalized histogram of `values` over [0, 1] with the Wachter density at each bin center."""
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts, _ = np.histogram(values, bins=edges)
    density = counts / (len(values) * (edges[1] - edges[0]))
    centers = 0.5 * (edges[:-1] + edges[1:])
    overlay = np.asarray(pdf(centers, params))
    rows = zip(centers.tolist(), density.tolist(), overlay.tolist())
    return "".join(_csv_lines(("bin_center", "empirical_density", "wachter_density"), rows))
