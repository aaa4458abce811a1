"""Panel ingestion from CSV and the first-difference standardization used
before analyzing real data.

CSV layout: first row holds series identifiers, columns are series, rows
are time.  An optional leading time-index column is detected (header empty
or body cells non-numeric) or forced via the time_column argument.  A cell
is a number when Python's float() reads it; missing and non-finite cells are
rejected outright, naming the cell; no imputation.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import DataError
from .synth import Panel

__all__ = ["read_panel_csv", "standardize"]

_NA_STRINGS = {"", "na", "nan", "n/a", "null", "none", "."}


def _check_cell(text: str, row: int, col: int, name: str) -> None:
    """Raise the DataError naming this cell if it is not a finite number."""
    cell = text.strip()
    if cell.lower() in _NA_STRINGS:
        raise DataError(f"missing value at data row {row}, column {name!r} (col {col}); no imputation is performed")
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"cell at data row {row}, column {name!r} (col {col}) is not numeric: {cell!r}") from None
    if not math.isfinite(value):
        raise DataError(f"cell at data row {row}, column {name!r} (col {col}) is not finite: {cell!r}")


def read_panel_csv(path, time_column: bool | str = "auto") -> Panel:
    """Read a series-per-column CSV into a p x n panel (rows = series).

    time_column: True drops the first column, False keeps it as data, and
    "auto" drops it when its header is empty or any body cell fails numeric
    parsing.  The file must be UTF-8 text (a non-UTF-8 byte raises DataError
    naming its line); a leading byte-order mark is ignored.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [row for row in csv.reader(fh) if row and any(cell.strip() for cell in row)]
    except UnicodeDecodeError:
        # text is decoded in chunks, so find the line by decoding line by
        # line; a UTF-8 sequence never holds a newline byte
        with open(path, "rb") as fh:
            for number, line in enumerate(fh, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DataError(
                        f"{path}: line {number} is not UTF-8 text "
                        f"(byte 0x{line[exc.start]:02x} at byte {exc.start + 1} of the line)"
                    ) from None
        raise
    if len(rows) < 3:
        raise DataError(f"{path}: need a header row and at least 2 data rows, found {len(rows)} non-empty rows")
    header, body = rows[0], rows[1:]
    width = len(header)
    for i, row in enumerate(body, start=1):
        if len(row) != width:
            raise DataError(f"{path}: row {i} has {len(row)} cells, header has {width} (panel must be rectangular)")

    drop_first = False
    if time_column is True:
        drop_first = True
    elif time_column == "auto" and width > 1:
        if not header[0].strip():
            drop_first = True
        else:
            # a time index is non-numeric but never missing; empty cells stay
            # data cells so they are reported instead of silently dropped
            first = [row[0].strip() for row in body]
            if all(first):
                def _is_number(cell):
                    try:
                        float(cell)
                        return True
                    except ValueError:
                        return False

                drop_first = not all(_is_number(cell) for cell in first)
    start = 1 if drop_first else 0
    names = tuple(h.strip() or f"col{j}" for j, h in enumerate(header[start:], start=start))
    if not names:
        raise DataError(f"{path}: no data columns after removing the time index")

    # numpy casts each str cell with Python's float(), straight into the
    # transposed view of the C-ordered result, so no second p x n copy is
    # made; 1024 rows per call bound numpy's per-row coercion cache
    data = np.empty((len(names), len(body)))
    try:
        for k in range(0, len(body), 1024):
            chunk = body[k:k + 1024]
            data[:, k:k + 1024].T[...] = [row[start:] for row in chunk] if start else chunk
    except ValueError:
        pass
    else:
        if np.isfinite(data).all():
            return Panel(data, series=names)
    # the conversion failed: name the first bad cell in row-major order
    for i, row in enumerate(body, start=1):
        for j, name in enumerate(names):
            _check_cell(row[start + j], i, start + j, name)
    raise DataError(f"{path}: a panel cell is not a finite number")


def standardize(panel: Panel) -> Panel:
    """Divide each series by the sample standard deviation of its first
    differences.  Constant (zero-difference-variance) series are rejected
    by name rather than silently producing infinities."""
    if panel.n < 3:
        raise DataError(f"standardization needs n >= 3 per series, got n={panel.n}")
    diffs = np.diff(panel.data, axis=1)
    sd = diffs.std(axis=1, ddof=1)
    bad = np.flatnonzero(sd <= 0.0)
    if len(bad):
        names = [panel.series[i] if panel.series else f"row {i}" for i in bad]
        raise DataError(f"series with zero first-difference variance: {', '.join(map(str, names))}")
    return Panel(panel.data / sd[:, None], series=panel.series)
