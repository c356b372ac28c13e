"""CSV and JSON file formats for the command-line tools.

Data panel CSV: one header row (labels are ignored), then one row per
variable, every field numeric; columns are observations.

Time-series CSV: one header row, then one row per time point 0..T; the
first column is the integer time index, the remaining K columns are the
variables.

Spectrum JSON: ``{"schema": "hdcca.spectrum/1", "values": [...],
"meta": {...}}`` with values sorted descending in [0, 1].

Histogram CSV: header ``bin_center,empirical_density,wachter_density``,
then one row per equal-width bin over [0, 1]; fields are Python float
reprs, so reruns are byte-identical.

Parse errors carry the 1-based line number of the offending row.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .cca_core import DataPanel
from .cointegration import TimeSeriesPanel
from .errors import InputFormatError
from .wachter import Spectrum, WachterParams, pdf

SPECTRUM_SCHEMA = "hdcca.spectrum/1"


def _read_rows(path) -> list[tuple[int, list[str]]]:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise InputFormatError(f"{path}: cannot read file: {e}") from e
    rows = []
    for lineno, row in enumerate(csv.reader(text.splitlines()), start=1):
        if row and any(field.strip() for field in row):
            rows.append((lineno, row))
    if len(rows) < 2:
        raise InputFormatError(f"{path}: need a header row plus at least one data row")
    return rows


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


def load_panel_csv(path) -> DataPanel:
    rows = _read_rows(path)
    data = []
    width = None
    for lineno, row in rows[1:]:
        vals = [_parse_float(f, path, lineno, i + 1) for i, f in enumerate(row)]
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise InputFormatError(
                f"{path}, line {lineno}: expected {width} observations, got {len(vals)}"
            )
        data.append(vals)
    return DataPanel(np.asarray(data))


def save_panel_csv(path, panel: DataPanel) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"obs_{j}" for j in range(panel.cols)])
        for row in panel.values:
            writer.writerow([repr(float(v)) for v in row])


def load_timeseries_csv(path) -> TimeSeriesPanel:
    rows = _read_rows(path)
    data = []
    width = None
    for expected_t, (lineno, row) in enumerate(rows[1:]):
        if len(row) < 2:
            raise InputFormatError(
                f"{path}, line {lineno}: need a time index plus at least one variable"
            )
        t = _parse_float(row[0], path, lineno, 1)
        if t != expected_t:
            raise InputFormatError(
                f"{path}, line {lineno}: time index must run 0..T in order, "
                f"expected {expected_t}, got {row[0]!r}"
            )
        vals = [_parse_float(f, path, lineno, i + 2) for i, f in enumerate(row[1:])]
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise InputFormatError(
                f"{path}, line {lineno}: expected {width} variables, got {len(vals)}"
            )
        data.append(vals)
    return TimeSeriesPanel(np.asarray(data).T)


def save_timeseries_csv(path, ts: TimeSeriesPanel) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x_{i}" for i in range(ts.K)])
        for t in range(ts.T + 1):
            writer.writerow([t] + [repr(float(v)) for v in ts.X[:, t]])


def load_spectrum_json(path) -> Spectrum:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise InputFormatError(f"{path}: cannot parse spectrum JSON: {e}") from e
    if doc.get("schema") != SPECTRUM_SCHEMA:
        raise InputFormatError(f"{path}: expected schema {SPECTRUM_SCHEMA!r}")
    try:
        return Spectrum(values=np.asarray(doc["values"], dtype=float), meta=doc.get("meta", {}))
    except Exception as e:
        raise InputFormatError(f"{path}: invalid spectrum: {e}") from e


def save_spectrum_json(path, spec: Spectrum) -> None:
    doc = {"schema": SPECTRUM_SCHEMA, "values": [float(v) for v in spec.values], "meta": spec.meta}
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def histogram_csv(values, params: WachterParams, bins: int) -> str:
    """Area-normalized histogram of `values` over [0, 1] with the Wachter density at each bin center."""
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts, _ = np.histogram(values, bins=edges)
    density = counts / (len(values) * (edges[1] - edges[0]))
    centers = 0.5 * (edges[:-1] + edges[1:])
    overlay = np.asarray(pdf(centers, params))
    rows = [("bin_center", "empirical_density", "wachter_density")]
    rows += [(repr(float(c)), repr(float(d)), repr(float(o))) for c, d, o in zip(centers, density, overlay)]
    return "\n".join(",".join(row) for row in rows) + "\n"
