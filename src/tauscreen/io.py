"""File formats: numeric data CSV, dense matrix CSV, and price-CSV ingestion.

Every table the package reads (a data, matrix or price CSV) goes through one
streaming row reader, :func:`read_rows`: it numbers the lines, refuses a line
that is not UTF-8 with an error naming the path and the line, skips blank
lines and splits each line into cells. Every table the package writes, the
edge and partition TSVs included, goes out through one streaming row writer,
:func:`write_rows`: UTF-8 text with ``\n`` line ends, cells joined by one
delimiter, and floats at 17 significant digits so doubles round-trip exactly;
a cell that holds the delimiter or a line break (``\n`` or ``\r``) is
refused. Data, matrix and price tables share one row parse,
:func:`_parse_row`: float64 cells, nan where ``float()`` refuses a cell.

Data CSVs hold one observation per row. The delimiter (comma or tab) is
auto-detected from the first non-blank line, and an optional single header
row of column labels is auto-detected by its first cell being non-numeric;
so the writer refuses labels whose first one reads as a number.

Price CSVs hold a leading date column and one column per ticker; they read
as a price matrix labelled by ticker. Ingestion turns T prices into T-1 log
returns ``log(S[t+1] / S[t])`` and standardizes each column to mean 0 and
standard deviation 1 (sample sd, divisor rows-1).
"""

from __future__ import annotations

import re

import numpy as np

from .errors import DegenerateColumnError, InvalidInputError
from .rankcorr import DataMatrix

_FMT = "%.17g"
# Under errors="surrogateescape", each byte that is not UTF-8 reads as one of
# these lone surrogates.
_UNDECODED = re.compile("[\udc80-\udcff]")


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def read_rows(path):
    """Yield the 1-based line number and the cells of each non-blank line of
    ``path``, read one line at a time. Cells are split on a tab if the first
    non-blank line holds one and on a comma otherwise. A line that is not
    UTF-8, or a file with no non-blank line, raises an error naming the path
    (and the line)."""
    delimiter = None
    # utf-8-sig drops the byte-order mark that Excel writes before a "CSV UTF-8"
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for i, line in enumerate(fh, 1):
            if not line.isascii() and _UNDECODED.search(line):
                raise InvalidInputError(f"{path}: line {i} is not UTF-8 text")
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            if delimiter is None:
                delimiter = "\t" if "\t" in line else ","
            yield i, line.split(delimiter)
    if delimiter is None:
        raise InvalidInputError(f"{path}: empty file")


def _line(path, cells, delimiter: str) -> str:
    """One output line: a ``float`` cell as ``%.17g``, any other with ``str``;
    a cell that holds the delimiter or a line break is refused."""
    text = [_FMT % v if isinstance(v, float) else str(v) for v in cells]
    line = delimiter.join(text)
    if line.count(delimiter) >= max(len(text), 1):  # k cells need only k - 1
        cell = next(c for c in text if delimiter in c)
        raise InvalidInputError(f"{path}: cell {cell!r} holds the delimiter {delimiter!r}")
    if "\n" in line or "\r" in line:  # read_rows would split the row there
        cell = next(c for c in text if "\n" in c or "\r" in c)
        raise InvalidInputError(f"{path}: cell {cell!r} holds a line break")
    return line + "\n"


def write_rows(path, rows, delimiter: str = ",", header=None) -> None:
    """Write ``header`` (when given) and then each row of ``rows``, one line
    per row, streaming. The header is checked before the file is opened."""
    head = _line(path, header, delimiter) if header is not None else ""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head)
        for row in rows:
            fh.write(_line(path, row, delimiter))


def _parse_row(cells) -> np.ndarray:
    """The cells of one row as float64; a cell ``float()`` refuses reads as nan."""
    try:
        return np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
    except ValueError:
        return np.array([float(c) if _is_number(c) else np.nan for c in cells])


def _read_numeric_table(path, labelled: bool) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """Parse a numeric table one line at a time. With ``labelled``, a first
    line whose first cell is not a number holds the column labels. A bad
    cell raises an error naming its row and column (rows count from the
    first data line)."""
    labels = None
    rows = []
    for _, cells in read_rows(path):
        if labelled and labels is None and not rows and not _is_number(cells[0]):
            labels = tuple(cell.strip() for cell in cells)
            continue
        i = len(rows) + 1
        if labels is not None and len(cells) != len(labels):
            raise InvalidInputError(
                f"{path}: row {i} has {len(cells)} cells for {len(labels)} header labels")
        if rows and len(cells) != rows[0].size:
            raise InvalidInputError(
                f"{path}: row {i} has {len(cells)} cells, expected {rows[0].size}")
        row = _parse_row(cells)
        bad = np.flatnonzero(~np.isfinite(row))  # float() accepts nan and inf
        if bad.size:
            j = bad[0]
            raise InvalidInputError(
                f"{path}: row {i}, column {j + 1}: bad value {cells[j].strip()!r}")
        rows.append(row)
    if not rows:
        raise InvalidInputError(f"{path}: no data rows")
    return np.vstack(rows), labels


def read_data_csv(path) -> DataMatrix:
    """Read an observation matrix; see the module docstring for the format."""
    values, labels = _read_numeric_table(path, labelled=True)
    if len(values) < 2:
        raise InvalidInputError(f"{path}: need at least 2 observations, got {len(values)}")
    return DataMatrix(values, labels=labels)


def write_data_csv(path, data: DataMatrix) -> None:
    """Write an observation matrix, its labels (if any) as the header. A
    first label that reads as a number, once the reader has dropped a
    leading byte-order mark, is refused before the file opens: the reader
    would take the header for an observation."""
    if data.labels and _is_number(data.labels[0].removeprefix("\ufeff")):
        raise InvalidInputError(
            f"{path}: first label {data.labels[0]!r} reads as a number, "
            "so the header would read back as an observation")
    write_rows(path, (row.tolist() for row in data.values), header=data.labels)


def read_matrix_csv(path) -> np.ndarray:
    """Read a dense header-free numeric matrix of finite values."""
    return _read_numeric_table(path, labelled=False)[0]


def write_matrix_csv(path, matrix) -> None:
    m = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    write_rows(path, (row.tolist() for row in m))


def read_price_csv(path) -> DataMatrix:
    """Read a price table: a date column, then one column per ticker. The
    prices come back labelled by ticker; an error names the row by its line
    in the file and its date. A price must be finite and > 0, and so must its
    ratio to the price in the row before, whose log is the return."""
    rows = read_rows(path)
    header_line, header = next(rows)
    header = [cell.strip() for cell in header]
    if len(header) < 2:
        raise InvalidInputError(f"{path}: need a date column plus at least one ticker")
    tickers = tuple(header[1:])
    if len(set(tickers)) < len(tickers):
        repeated = next(t for i, t in enumerate(tickers) if t in tickers[:i])
        raise InvalidInputError(f"{path}: row {header_line}: ticker {repeated!r} repeats")
    prices = []
    for line_no, row in rows:
        if len(row) != len(header):
            raise InvalidInputError(f"{path}: row {line_no} has {len(row)} cells, expected {len(header)}")
        values = _parse_row(row[1:])
        bad = np.flatnonzero(~(values > 0) | np.isinf(values))  # nan is not > 0
        if bad.size:
            j = bad[0]  # an empty cell is not a number, so it reads as missing
            what = (f"nonpositive price {float(values[j])}" if _is_number(row[j + 1])
                    else "missing or bad price")
            raise InvalidInputError(
                f"{path}: {what} at row {line_no} ({row[0].strip()}), ticker {tickers[j]}")
        if prices:
            with np.errstate(over="ignore", under="ignore"):
                ratio = values / prices[-1]
            bad = np.flatnonzero(~(ratio > 0) | np.isinf(ratio))
            if bad.size:
                j = bad[0]
                raise InvalidInputError(
                    f"{path}: price ratio {float(values[j])}/{float(prices[-1][j])} "
                    f"out of range at row {line_no} ({row[0].strip()}), ticker {tickers[j]}")
        prices.append(values)
    if len(prices) < 3:
        raise InvalidInputError(
            f"{path}: need a header and at least 3 price rows (2 returns), got {len(prices)}")
    return DataMatrix(np.vstack(prices), labels=tickers)


def log_returns(prices: DataMatrix) -> DataMatrix:
    """Raw (unstandardized) log returns log(S[t+1] / S[t])."""
    ret = np.log(prices.values[1:] / prices.values[:-1])
    return DataMatrix(ret, labels=prices.labels)


def standardize_columns(data: DataMatrix) -> DataMatrix:
    """Center each column and scale to unit sample standard deviation
    (divisor rows-1). Constant columns are rejected."""
    v = data.values
    centered = v - v.mean(axis=0)
    sd = np.sqrt(np.sum(centered**2, axis=0) / (v.shape[0] - 1))
    zero = np.flatnonzero(sd == 0.0)
    if zero.size:
        j = int(zero[0])
        raise DegenerateColumnError(
            data.column_name(j),
            f"column {data.column_name(j)!r} has zero variance after log returns")
    return DataMatrix(centered / sd, labels=data.labels)


def ingest_prices(prices: DataMatrix) -> DataMatrix:
    """Standardized log-return matrix from a price matrix."""
    return standardize_columns(log_returns(prices))

