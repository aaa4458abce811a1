"""Panel ingestion from CSV and the first-difference standardization used
before analyzing real data.

CSV layout: first row holds series identifiers, columns are series, rows
are time.  An optional leading time-index column is detected (header empty
or body cells non-numeric) or forced via the time_column argument.  A cell
is a number when Python's float() reads it; missing and non-finite cells are
rejected outright, naming the cell; no imputation.

Two readers give the same panels.  A plain numeric file has a header with a
non-blank cell as its first row, then at least 2 rows, as wide as the header,
of unquoted finite ASCII numbers, and no byte 0x1C-0x1F anywhere.  It goes
through numpy's C reader (np.loadtxt), which converts each field with
PyOS_string_to_double, the routine float() ends in, so the bits are the same;
the four separator bytes are the one class loadtxt strips as whitespace and
float() refuses.  Every other file, e.g. one with a date column, a quoted or
missing cell, 1_000 or non-ASCII digits, goes to the block reader, which runs
csv.reader and float() on each cell; one the C reader refuses only late pays
one extra C pass first.
"""

from __future__ import annotations

import csv
import math
import warnings
from itertools import islice

import numpy as np

from .errors import DataError
from .synth import Panel

__all__ = ["read_panel_csv", "standardize"]

_NA_STRINGS = {"", "na", "nan", "n/a", "null", "none", "."}
_BLOCK = 1024  # data rows converted per numpy call
_SCAN = 1 << 20  # bytes per chunk of the separator pre-scan
# U+001C..U+001F: str.isspace() and loadtxt treat them as whitespace, float()
# does not; none occurs inside a multi-byte UTF-8 sequence
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _cell_error(text: str, row: int, col: int, name: str) -> DataError | None:
    """The DataError naming this cell if it is not a finite number, else None."""
    cell = text.strip()
    if cell.lower() in _NA_STRINGS:
        return DataError(f"missing value at data row {row}, column {name!r} (col {col}); no imputation is performed")
    try:
        value = float(text)
    except ValueError:
        # str.strip() also removes U+001C..U+001F, which float() refuses
        shown = text if _is_number(cell) else cell
        return DataError(f"cell at data row {row}, column {name!r} (col {col}) is not numeric: {shown!r}")
    if not math.isfinite(value):
        return DataError(f"cell at data row {row}, column {name!r} (col {col}) is not finite: {cell!r}")
    return None


def _first_bad_cell(path, rows, first_row: int, cols, names) -> tuple[float, DataError]:
    """(data row, DataError) of the first cell of rows, in row-major order
    over the column indices cols, that is not a finite number; a generic
    error at row inf if no cell is named."""
    for i, row in enumerate(rows, start=first_row):
        for j in cols:
            error = _cell_error(row[j], i, j, names[j])
            if error is not None:
                return i, error
    return math.inf, DataError(f"{path}: a panel cell is not a finite number")


def _cast(out: np.ndarray, cells) -> bool:
    """Write cells into out, numpy calling Python's float() on each str;
    False when a cell is not a finite number."""
    try:
        out[...] = cells
    except ValueError:
        return False
    return bool(np.isfinite(out).all())


def _nonempty_rows(path):
    """Yield the CSV rows of path that hold a non-blank cell.

    A non-UTF-8 byte raises DataError naming its line; a leading byte-order
    mark is ignored.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            for row in csv.reader(fh):
                if row and any(cell.strip() for cell in row):
                    yield row
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


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _names(header) -> list[str]:
    return [h.strip() or f"col{j}" for j, h in enumerate(header)]


def read_panel_csv(path, time_column: bool | str = "auto") -> Panel:
    """Read a series-per-column CSV into a p x n panel (rows = series).

    time_column: True drops the first column, False keeps it as data, and
    "auto" drops it when its header is empty or any body cell fails numeric
    parsing.  The file must be UTF-8 text (a non-UTF-8 byte raises DataError
    naming its line); a leading byte-order mark is ignored.

    A plain numeric file is read by numpy's C reader, every other file by
    the block reader, with the same result (see the module docstring).
    """
    panel = _read_plain(path, time_column)
    return panel if panel is not None else _read_blocks(path, time_column)


def _read_plain(path, time_column) -> Panel | None:
    """The panel of a plain numeric file, read by np.loadtxt; None for any
    other file, which the block reader then reads or rejects."""
    with open(path, "rb") as fh:
        while chunk := fh.read(_SCAN):
            if any(byte in chunk for byte in _SEPARATORS):
                return None
    try:
        # loadtxt warns on a file without data rows, which falls back
        with open(path, newline="", encoding="utf-8-sig") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            header = next(csv.reader(fh), [])
            if not any(h.strip() for h in header):
                return None
            body = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except (ValueError, csv.Error):  # a cell loadtxt cannot read, a ragged row, a non-UTF-8 byte
        return None
    width = len(header)
    if body.shape[0] < 2 or body.shape[1] != width or not np.isfinite(body).all():
        return None
    start = 1 if time_column is True or (time_column == "auto" and width > 1 and not header[0].strip()) else 0
    if width == start:
        return None
    data = np.ascontiguousarray(body[:, start:].T)
    return Panel(data, series=tuple(_names(header)[start:]))


def _read_blocks(path, time_column) -> Panel:
    """read_panel_csv by csv.reader and float() on each cell.

    Rows are converted in blocks of _BLOCK as they are read, so at most two
    blocks of cells are held as text; column 0 alone stays text to the end,
    because the "auto" rule needs all of it.  No error is raised before the
    end of the file, so errors win in this order: a non-UTF-8 byte, too few
    rows, the first non-rectangular row, the first cell that is not a finite
    number in row-major order.
    """
    rows = _nonempty_rows(path)
    header = next(rows, [])
    width = len(header)
    names = _names(header)
    count = 1 if header else 0  # non-empty rows, header included
    short = None  # (data row, cells) of the first row not as wide as the header
    lead = []  # column 0 as text
    blocks = []  # columns 1.. as float blocks, series in rows
    bad = None  # (data row, DataError) of the first bad cell in columns 1..
    while chunk := list(islice(rows, _BLOCK)):
        first_row = count
        count += len(chunk)
        if short is not None:
            continue
        short = next(((i, len(row)) for i, row in enumerate(chunk, start=first_row) if len(row) != width), None)
        if short is not None:
            continue
        lead.extend(row[0] for row in chunk)
        if bad is not None:
            continue
        # numpy casts each str cell with Python's float(), straight into the
        # transposed view of a series-in-rows block, so the blocks join
        # into the C-ordered result; a block per call also bounds numpy's
        # per-row coercion cache
        block = np.empty((width - 1, len(chunk)))
        if _cast(block.T, [row[1:] for row in chunk]):
            blocks.append(block)
        else:
            bad = _first_bad_cell(path, chunk, first_row, range(1, width), names)

    if count < 3:
        raise DataError(f"{path}: need a header row and at least 2 data rows, found {count} non-empty rows")
    if short is not None:
        raise DataError(f"{path}: row {short[0]} has {short[1]} cells, header has {width} (panel must be rectangular)")

    drop_first = False
    if time_column is True:
        drop_first = True
    elif time_column == "auto" and width > 1:
        if not header[0].strip():
            drop_first = True
        else:
            # a time index is non-numeric but never missing; empty cells stay
            # data cells so they are reported instead of silently dropped
            drop_first = all(cell.strip() for cell in lead) and not all(_is_number(cell) for cell in lead)
    start = 1 if drop_first else 0
    if width == start:
        raise DataError(f"{path}: no data columns after removing the time index")

    data = np.empty((width - start, count - 1))
    if not drop_first and not _cast(data[0], lead):
        row, error = _first_bad_cell(path, ((cell,) for cell in lead), 1, (0,), names)
        if bad is None or row <= bad[0]:
            raise error
    if bad is not None:
        raise bad[1]
    np.concatenate(blocks, axis=1, out=data[1 - start:])
    return Panel(data, series=tuple(names[start:]))


def standardize(panel: Panel) -> Panel:
    """Divide each series by the sample standard deviation of its first
    differences.  Constant (zero-difference-variance) series are rejected
    by name rather than silently producing infinities.  The differences are
    taken one row at a time, so the output is the only p x n array made."""
    if panel.n < 3:
        raise DataError(f"standardization needs n >= 3 per series, got n={panel.n}")
    sd = np.array([np.diff(row).std(ddof=1) for row in panel.data])
    bad = np.flatnonzero(sd <= 0.0)
    if len(bad):
        names = [panel.series[i] if panel.series else f"row {i}" for i in bad]
        raise DataError(f"series with zero first-difference variance: {', '.join(map(str, names))}")
    return Panel(panel.data / sd[:, None], series=panel.series)
